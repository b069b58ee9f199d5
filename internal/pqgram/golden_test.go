package pqgram

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/tree"
	"tasm/internal/varint"
)

// TestProfileHashesGolden pins every gram hash and multiplicity bit for
// bit. Each digest is the SHA-256 of the profile in the byte layout of
// the profile files earlier builds wrote (magic "TASMPF1\n", then p, q,
// the number of distinct grams and each gram's hash and multiplicity in
// ascending hash order, all LEB128 varints); they were recorded from the
// map-and-closure implementation (hash/fnv over the stem and base labels
// as little-endian 8-byte words) that the current one replaced.
func TestProfileHashesGolden(t *testing.T) {
	fixed := func(s string) func(dict.Dict) (*tree.Tree, error) {
		return func(d dict.Dict) (*tree.Tree, error) { return tree.Parse(d, s) }
	}
	cases := []struct {
		name  string
		build func(dict.Dict) (*tree.Tree, error)
		p, q  int
		size  int
		want  string
	}{
		{"xmark(1) seed 1", func(d dict.Dict) (*tree.Tree, error) { return datagen.XMark(1).Tree(d, 1) }, 2, 3,
			29375, "a4e91f884082ef9a20287a4e645f3153d01bc185de239f0025b11b8bd4dbc290"},
		{"dblp(10) seed 1000", func(d dict.Dict) (*tree.Tree, error) { return datagen.DBLP(10).Tree(d, 1000) }, 2, 3,
			416, "ab79943fc0c342d7eacaa5f9aba2fc82cc9b97d68c0bb1fa239ffa898542c920"},
		{"dblp(10) seed 1179 p=3 q=2", func(d dict.Dict) (*tree.Tree, error) { return datagen.DBLP(10).Tree(d, 1179) }, 3, 2,
			269, "536d25c7a95999587ccc617ab279e0e4c37837b40949282c110a02deb26dc9d2"},
		{"bracket p=1 q=1", fixed("{x{a{b}{d}}{a{b}{c}}}"), 1, 1,
			6, "f4cd79898a664dafeebaad19669bb3a8a5a4dd9ec323a5537872586c6e0071de"},
		{"bracket p=2 q=3", fixed("{x{a{b}{d}}{a{b}{c}}}"), 2, 3,
			20, "9e575d3370cf88f1f2ce73362300073a57d61abb19190a6c8347ec765266b238"},
		{"single node", fixed("{a}"), 2, 3,
			2, "f1365dd84abe1708012029c068a13951c21ae1cf909c8859c4aa2a3a01ba133e"},
		{"chain p=4 q=1", fixed("{a{b{c{d{e}}}}}"), 4, 1,
			4, "3c375e34165c56d1ed7ba227168961224844ef95e29be6e9c1c336df2f09e49a"},
		{"chain p=4 q=2", fixed("{a{b{c{d{e}}}}}"), 4, 2,
			9, "b16f158ee57b6048d5eaa7b62173f98594a6cc852ac142acff5770f531e5cb46"},
	}
	for _, c := range cases {
		tr, err := c.build(dict.New())
		if err != nil {
			t.Fatal(err)
		}
		pr, err := New(tr, c.p, c.q)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString("TASMPF1\n")
		hashes, counts := pr.Grams()
		for _, v := range []int{c.p, c.q, len(hashes)} {
			varint.Write(&buf, uint64(v))
		}
		for i, h := range hashes {
			varint.Write(&buf, h)
			varint.Write(&buf, uint64(counts[i]))
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want || pr.Size() != c.size {
			t.Errorf("%s: %d grams, digest %s; want %d grams, digest %s", c.name, pr.Size(), got, c.size, c.want)
		}
	}
}
