package main

// The five workloads: what corpus each one serves, what it asks, and in
// what order. Everything here is a pure function of -seed.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/tree"
	"tasm/internal/xmlstream"
)

// workload is one named traffic mix against one topology.
type workload struct {
	name string
	why  string
	// leaves is the number of leaf daemons; 1 is a plain leaf, more puts a
	// router in front and splits the fixture's documents evenly.
	leaves int
	// docs generates the fixture.
	docs func(seed int64) ([]fixtureDoc, error)
	// qsize, k and batch shape one request: batch queries of sizes qsize,
	// qsize+1, … against /v1/topk-batch when batch > 1, one query against
	// /v1/topk otherwise.
	qsize, k, batch int
	// pool is the number of distinct requests; zipf > 0 draws them with
	// that exponent, 0 cycles through them in order.
	pool int
	zipf float64
	// churn runs a background writer that ingests and removes one small
	// document per churnPeriod while the readers run.
	churn bool
	// rateRPS is the fixed arrival rate of the open phase: 0.5 × the
	// saturate-phase throughput measured at seed 1 on the reference box
	// when the workload was defined. It is a constant so that a faster
	// program shows as lower load latency, not as a moved target.
	rateRPS float64
	// warmup is the number of discarded requests before measuring (on top
	// of the discarded warm-up second every workload gets).
	warmup int
	// hitRatio is the cache hit ratio the workload must stay inside; a
	// run outside it is reported as incorrect because its percentiles
	// would describe a different population.
	hitRatio [2]float64
}

// fixtureDoc is one generated document: its corpus name, its XML as
// ingested, and its tree (for drawing queries and for the naive oracle).
type fixtureDoc struct {
	name string
	xml  string
	tree *tree.Tree
}

var workloads = []workload{
	{
		name: "leaf-scan", leaves: 1, docs: xmarkDocs, qsize: 8, k: 5, batch: 1, pool: 384,
		rateRPS: 425, hitRatio: [2]float64{0, 0},
		why: "distinct small queries over 4 XMark docs, cache never hits: the scan floor (store decode, ring buffer, histogram gate) does almost all the work",
	},
	{
		name: "leaf-ted", leaves: 1, docs: xmarkDocs, qsize: 16, k: 50, batch: 1, pool: 384,
		rateRPS: 150, hitRatio: [2]float64{0, 0},
		why: "same corpus, |Q|=16 k=50 (tau=82): Zhang-Shasha dominates, so a scan-floor win shows little here and a DP win little on leaf-scan",
	},
	{
		name: "leaf-batch", leaves: 1, docs: xmarkDocs, qsize: 8, k: 5, batch: 4, pool: 384,
		rateRPS: 150, hitRatio: [2]float64{0, 0},
		why: "same corpus through /v1/topk-batch, 4 queries per request: the only path through the batch kernel, which a single/batch merge can regress",
	},
	{
		name: "leaf-manydocs-churn", leaves: 1, docs: dblpDocs, qsize: 12, k: 5, batch: 1, pool: 384,
		churn: true, rateRPS: 440, hitRatio: [2]float64{0, 0},
		why: "180 small DBLP docs with a writer ingesting and removing a doc beside the readers: per-document constants, plan cost and snapshot republish matter",
	},
	{
		name: "router-hot", leaves: 2, docs: xmarkDocs, qsize: 8, k: 5, batch: 1, pool: 1024, zipf: 1.1,
		rateRPS: 1180, warmup: 2000, hitRatio: [2]float64{0.5, 0.9},
		why: "router over two leaves, Zipf(1.1) over 1024 queries against a 256-entry cache: p50 sits on the hit path (HTTP+JSON+LRU), p99 on the fan-out miss path",
	},
}

// path is the endpoint the workload's requests go to.
func (w *workload) path() string {
	if w.batch > 1 {
		return "/v1/topk-batch"
	}
	return "/v1/topk"
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// quick shrinks a workload to a smoke-test size: two XMark documents (one
// per leaf under a router) or 8 DBLP documents, and a pool of 16 requests. The topology, endpoint and request
// order are unchanged.
func (w workload) quick() workload {
	inner := w.docs
	w.docs = func(seed int64) ([]fixtureDoc, error) {
		docs, err := inner(seed)
		if err != nil {
			return nil, err
		}
		keep := 2
		if len(docs) > 4 { // the many-documents fixture stays many
			keep = 8
		}
		return docs[:keep], nil
	}
	w.pool = 16
	w.warmup = 0
	w.rateRPS = 200
	w.hitRatio = [2]float64{0, 1}
	return w
}

// genDocs materializes n documents of one dataset, each under its own
// generation seed derived from the workload seed.
func genDocs(ds *datagen.Dataset, n int, seed int64) ([]fixtureDoc, error) {
	docs := make([]fixtureDoc, n)
	for i := range docs {
		t, err := ds.Tree(dict.New(), seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := xmlstream.WriteTree(&sb, t); err != nil {
			return nil, err
		}
		docs[i] = fixtureDoc{name: fmt.Sprintf("%s-%03d", ds.Name(), i), xml: sb.String(), tree: t}
	}
	return docs, nil
}

// xmarkDocs is the shared XMark fixture: 4 documents of scale 1, about
// 39k nodes. It is half the size the issue prototyped with so that the
// serial phase still completes more than a thousand requests on the
// slowest workload inside the driver's time cap.
func xmarkDocs(seed int64) ([]fixtureDoc, error) { return genDocs(datagen.XMark(1), 4, seed) }

// dblpDocs is the many-documents fixture: 180 bibliographies of 10
// records, about 24k nodes. More documents than that overflow the 192
// spans a tasmd trace holds (one per scanned document), and the per-layer
// numbers of a traced run are only whole when no span is dropped.
func dblpDocs(seed int64) ([]fixtureDoc, error) { return genDocs(datagen.DBLP(10), 180, seed) }

// request is one pool entry: the HTTP body it sends and the bracket
// queries inside it (one, or a batch).
type request struct {
	body    []byte
	queries []string
}

// buildPool draws w.pool distinct requests. Queries are existing subtrees
// of the fixture (the paper's workload), distinct by bracket string within
// a request; requests are distinct as a whole, so no two share a cache
// key. A fixture that runs out of distinct subtrees of the wanted size —
// a whole pool's worth of draws in a row yields nothing new — has the
// wanted size spread upwards one node at a time, so that every seed fills
// its pool.
func buildPool(w *workload, docs []fixtureDoc, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	pool := make([]request, 0, w.pool)
	spread, misses := 0, 0
	for len(pool) < w.pool {
		qs := make([]string, 0, w.batch)
		for len(qs) < w.batch {
			want := w.qsize + len(qs) + rng.Intn(spread+1)
			q, err := datagen.QueryFromDocument(docs[rng.Intn(len(docs))].tree, rng, want)
			if err != nil {
				return nil, err
			}
			if s := q.String(); !slices.Contains(qs, s) {
				qs = append(qs, s)
			}
		}
		key := strings.Join(qs, "\x00")
		if seen[key] {
			if misses++; misses >= w.pool {
				if spread++; spread > 4*w.qsize {
					return nil, fmt.Errorf("%s: fixture yields fewer than %d distinct requests", w.name, w.pool)
				}
				misses = 0
			}
			continue
		}
		seen[key], misses = true, 0
		var body []byte
		var err error
		if w.batch > 1 {
			body, err = json.Marshal(map[string]any{"queries": qs, "k": w.k})
		} else {
			body, err = json.Marshal(map[string]any{"query": qs[0], "k": w.k})
		}
		if err != nil {
			return nil, err
		}
		pool = append(pool, request{body: body, queries: qs})
	}
	return pool, nil
}

// sequenceLen is how many request indices are drawn up front; the
// sequence repeats after that, far beyond what one run sends.
const sequenceLen = 1 << 18

// buildSequence returns the order in which pool entries are requested:
// cyclic (reuse distance = pool size, so an LRU smaller than the pool
// never hits) or Zipf-distributed over the pool.
func buildSequence(w *workload, seed int64) []int32 {
	seq := make([]int32, sequenceLen)
	if w.zipf == 0 {
		for i := range seq {
			seq[i] = int32(i % w.pool)
		}
		return seq
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), w.zipf, 1, uint64(w.pool-1))
	for i := range seq {
		seq[i] = int32(z.Uint64())
	}
	return seq
}

// churnDoc is the document the churn writer ingests and removes: a few
// nodes whose labels occur in no fixture document and no query, so every
// one of its subtrees is at distance ≥ |Q| from every query and answers
// stay exactly the oracle's while generations, snapshots and cache keys
// change for real.
const churnDoc = `<zzchurn><zzc1>zzv1</zzc1><zzc2>zzv2</zzc2><zzc3><zzc4>zzv3</zzc4></zzc3></zzchurn>`
