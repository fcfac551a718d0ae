package parclust

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"parclust/internal/generator"
)

// goldenDendrogramOutputs names the fingerprinted outputs of one
// hierarchy, in the order of the goldenDendrograms rows.
var goldenDendrogramOutputs = [...]string{"plot", "newick", "stable", "nodes"}

// goldenDendrograms holds FNV-64a fingerprints of what a hierarchy exposes
// of its ordered dendrogram. The plot, Newick and stable-label columns were
// recorded before the parallel builder ordered its light components
// totally; the nodes column (Left/Right/Height/Root) was recorded after,
// since until then it varied from run to run.
var goldenDendrograms = map[string][len(goldenDendrogramOutputs)]uint64{
	"hdbscan-minpts10": {0xce6691a345548204, 0xfecc3a1f3299f4b1, 0x97aef0f995ac7b49, 0x70d1974b60214ef2},
	"single-linkage":   {0xb20badec76752f1e, 0xf9cefb2f2b7b9f51, 0xc21f3c2b9bc24819, 0x2f6660f1f0951a68},
}

// TestGoldenDendrogram pins, byte for byte, the ordered dendrogram of the
// HDBSCAN* (minPts 10) and single-linkage hierarchies of an 8-region
// GeoLife-like mix of 20,000 points: the reachability plot, the Newick
// text, the stable-cluster labels, and the internal nodes' Left, Right and
// Height arrays that Hierarchy.Dendrogram exposes. At this size the
// parallel builder recurses past its sequential cutoff and, at two or more
// workers, list ranking takes its parallel path, so CI's -cpu 1,2,4 run of
// the goldens checks that none of these depends on the worker count.
func TestGoldenDendrogram(t *testing.T) {
	pts := NewPoints(0, 3)
	for b := int64(0); b < 8; b++ {
		blk := generator.GeoLifeLike(2500, 100+b)
		pts.Data = append(pts.Data, blk.Data...)
		pts.N += blk.N
	}
	idx, err := NewIndex(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	hdb, err := idx.HDBSCAN(10)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := idx.SingleLinkage()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range []struct {
		key string
		h   *Hierarchy
	}{{"hdbscan-minpts10", hdb}, {"single-linkage", sl}} {
		fp := dendrogramFingerprints(t, c.h)
		for i, v := range fp {
			if want := goldenDendrograms[c.key][i]; v != want {
				t.Errorf("%s/%s: fingerprint %#x, want %#x", c.key, goldenDendrogramOutputs[i], v, want)
			}
		}
		got = append(got, fmt.Sprintf("\t%q: {%#016x, %#016x, %#016x, %#016x},\n", c.key, fp[0], fp[1], fp[2], fp[3]))
	}
	if t.Failed() {
		t.Logf("fingerprints of this build:\n%s", strings.Join(got, ""))
	}
}

// dendrogramFingerprints hashes each goldenDendrogramOutputs output of h.
func dendrogramFingerprints(t *testing.T, h *Hierarchy) [len(goldenDendrogramOutputs)]uint64 {
	t.Helper()
	var fp [len(goldenDendrogramOutputs)]uint64
	u32 := func(b []byte, v int32) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }
	f64 := func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	sum := func(b []byte) uint64 {
		s := fnv.New64a()
		s.Write(b)
		return s.Sum64()
	}

	var plot []byte
	for _, bar := range h.ReachabilityPlot() {
		plot = f64(u32(plot, bar.Idx), bar.H)
	}
	fp[0] = sum(plot)

	var newick strings.Builder
	if err := h.WriteNewick(&newick, nil); err != nil {
		t.Fatal(err)
	}
	fp[1] = sum([]byte(newick.String()))

	c := h.ExtractStableClusters(10)
	stable := u32(nil, int32(c.NumClusters))
	for _, l := range c.Labels {
		stable = u32(stable, l)
	}
	fp[2] = sum(stable)

	d := h.Dendrogram()
	nodes := u32(nil, d.Root)
	for i := range d.Height {
		nodes = f64(u32(u32(nodes, d.Left[i]), d.Right[i]), d.Height[i])
	}
	fp[3] = sum(nodes)
	return fp
}
