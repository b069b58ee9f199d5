package corpus

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"tasm/internal/pqgram"
)

// profileIndex is the in-memory profile index of one snapshot: the
// pq-gram profiles and label histograms of all its documents, inverted.
// A document is addressed by its slot, its position in the snapshot's
// docs. Each posting says that the document in slot holds count copies
// of key (a gram hash, or a base-dictionary label id). The postings are
// sorted by (key, slot), so a query reads the documents that share one of
// its keys in one binary search and one contiguous run, and planning
// costs the query's own postings, not a probe per document.
//
// An index is immutable once published: the next snapshot's index is a
// new one (next), and queries still holding the old snapshot keep reading
// the old index.
type profileIndex struct {
	grams  []posting[uint64] // 16 bytes each
	labels []posting[int32]  // 12 bytes each
	// totals holds, per slot, the number of the document's pq-grams with
	// multiplicity.
	totals []int
}

// lazyIndex is a snapshot's profile index, built on first use from the
// last index an earlier snapshot built (from, the index of fromDocs) and
// the columns of the documents added since. A run of commits with no
// query between them — a bulk ingest, or Open — builds one index, not one
// per commit, and no commit waits for a build.
type lazyIndex struct {
	mu       sync.Mutex
	built    *profileIndex
	from     *profileIndex
	fromDocs []DocInfo
}

// get returns the index of st, building it on the first call.
func (l *lazyIndex) get(st *snapshot, p, q int) (*profileIndex, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.built == nil {
		x, err := l.from.next(l.fromDocs, st, p, q)
		if err != nil {
			return nil, err
		}
		l.built, l.from, l.fromDocs = x, nil, nil
	}
	return l.built, nil
}

// then returns the lazy index of the snapshot that follows l's; docs are
// the documents of l's snapshot. It starts from l's index if a query has
// built it, and from where l starts otherwise.
func (l *lazyIndex) then(docs []DocInfo) *lazyIndex {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.built != nil {
		return &lazyIndex{from: l.built, fromDocs: docs}
	}
	return &lazyIndex{from: l.from, fromDocs: l.fromDocs}
}

// posting is one (key, document) entry of a profileIndex.
type posting[K uint64 | int32] struct {
	key   K
	slot  int32
	count int32
}

func comparePostings[K uint64 | int32](a, b posting[K]) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.slot, b.slot)
}

// countLabels returns the histogram of a tree's label ids — labels[i]
// occurs counts[i] times, the ids ascending and distinct — reusing the
// backing arrays of labels and counts. An id beyond int32 is left out: no
// dictionary holds that many labels, and a request-local label that large
// has no postings either way.
func countLabels(ids []int, labels, counts []int32) ([]int32, []int32) {
	labels, counts = labels[:0], counts[:0]
	for _, id := range ids {
		if id <= math.MaxInt32 {
			labels = append(labels, int32(id))
		}
	}
	slices.Sort(labels)
	n := 0
	for i, id := range labels {
		if i > 0 && id == labels[n-1] {
			counts[n-1]++
			continue
		}
		labels[n] = id
		counts = append(counts, 1)
		n++
	}
	return labels[:n], counts
}

// next returns the index of st.docs, given that x is the index of
// prevDocs. Both lists are manifests, in ascending id order: st.docs keeps
// some of prevDocs and may add others. One pass over x drops the postings
// of the documents st.docs no longer holds and moves the rest to their new
// slots; the postings of the documents new to st.docs are derived from
// their columns — the pq-gram profile from the label and size columns,
// the label histogram from the label postings — with label ids in st's
// base, and merged in.
func (x *profileIndex) next(prevDocs []DocInfo, st *snapshot, p, q int) (*profileIndex, error) {
	docs := st.docs
	nx := &profileIndex{totals: make([]int, len(docs))}
	remap := make([]int32, len(prevDocs))
	kept := make([]bool, len(docs))
	moved := false // whether any document left or changed slot
	j := 0
	for i, d := range prevDocs {
		for j < len(docs) && docs[j].ID < d.ID {
			j++
		}
		remap[i] = -1
		if j < len(docs) && docs[j].ID == d.ID {
			remap[i], kept[j], nx.totals[j] = int32(j), true, x.totals[i]
		}
		moved = moved || remap[i] != int32(i)
	}
	if !moved {
		remap = nil
	}
	var grams []posting[uint64]
	var labels []posting[int32]
	for s, d := range docs {
		if kept[s] {
			continue
		}
		cols := st.stores[d.ID].cols
		prof, err := pqgram.FromPostorder(cols.Labels(), cols.Sizes(), p, q)
		if err != nil {
			return nil, err
		}
		nx.totals[s] = prof.Size()
		hashes, counts := prof.Grams()
		for k, h := range hashes {
			grams = append(grams, posting[uint64]{key: h, slot: int32(s), count: counts[k]})
		}
		for l, n := range cols.LabelCounts() {
			labels = append(labels, posting[int32]{key: l, slot: int32(s), count: n})
		}
	}
	nx.grams = nextPostings(x.grams, grams, remap)
	nx.labels = nextPostings(x.labels, labels, remap)
	return nx, nil
}

// nextPostings filters old through remap (old slot → new slot, -1 for a
// dropped document; nil when every slot stays) and merges the result with
// added. remap preserves the order of the slots it keeps, so the filtered
// postings stay sorted by (key, slot); added is sorted here. A commit
// either removes documents or adds them, so one of the two steps is
// usually empty, and a merge copies the runs of old between two added
// postings whole.
func nextPostings[K uint64 | int32](old, added []posting[K], remap []int32) []posting[K] {
	kept := old
	if remap != nil {
		kept = make([]posting[K], 0, len(old))
		for _, p := range old {
			if p.slot = remap[p.slot]; p.slot >= 0 {
				kept = append(kept, p)
			}
		}
	}
	slices.SortFunc(added, comparePostings[K])
	switch {
	case len(added) == 0:
		return kept
	case len(kept) == 0:
		return added
	}
	out := make([]posting[K], 0, len(kept)+len(added))
	for _, a := range added {
		i, _ := slices.BinarySearchFunc(kept, a, comparePostings[K])
		out = append(append(out, kept[:i]...), a)
		kept = kept[i:]
	}
	return append(out, kept...)
}

// addOverlap walks the postings of each of query i's distinct keys (keys
// ascending, counts their multiplicities in the query) and adds, for the
// document in each posting's slot, min(c_Q, c_D) to common[slot·nq + i]
// and, when sum is not nil, c_D to sum[slot·nq + i].
func addOverlap[K uint64 | int32](ps []posting[K], keys []K, counts []int32, common, sum []int, i, nq int) {
	lo := 0
	for k, key := range keys {
		// The keys ascend, so each search starts where the last ended.
		hi := len(ps)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); ps[m].key < key {
				lo = m + 1
			} else {
				hi = m
			}
		}
		cq := counts[k]
		for ; lo < len(ps) && ps[lo].key == key; lo++ {
			at := int(ps[lo].slot)*nq + i
			common[at] += int(min(cq, ps[lo].count))
			if sum != nil {
				sum[at] += int(ps[lo].count)
			}
		}
	}
}
