package dendrogram

import (
	"math/rand"
	"testing"

	"parclust/internal/geometry"
	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
)

// blobs generates k tight Gaussian blobs far apart, plus a little noise.
func blobs(n, k int, seed int64) (geometry.Points, []int) {
	rng := rand.New(rand.NewSource(seed))
	pts := geometry.NewPoints(n, 2)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		truth[i] = c
		pts.Data[2*i] = float64(c)*1000 + rng.NormFloat64()*2
		pts.Data[2*i+1] = rng.NormFloat64() * 2
	}
	return pts, truth
}

// hdbscanDendro builds the HDBSCAN* dendrogram the way the engine does: the
// MemoGFK MST stage over a leaf-size-1 tree annotated with core distances.
func hdbscanDendro(t *testing.T, pts geometry.Points, minPts int) (*Dendrogram, []float64) {
	t.Helper()
	tr := kdtree.BuildMetric(pts, 1, metric.L2{})
	cd := tr.CoreDistances(minPts)
	tr.AnnotateCoreDists(cd)
	edges := hdbscan.MSTOnAnnotatedTree(tr, hdbscan.MemoGFK, metric.L2{}, nil, nil)
	return BuildParallel(pts.N, edges, 0), cd
}

func TestExtractStableFindsBlobs(t *testing.T) {
	pts, truth := blobs(600, 3, 1)
	d, _ := hdbscanDendro(t, pts, 10)
	c := d.ExtractStable(20)
	if c.NumClusters != 3 {
		t.Fatalf("found %d stable clusters, want 3", c.NumClusters)
	}
	// Labels must be consistent with the ground-truth blobs (allowing noise).
	blobOf := map[int32]int{}
	for i, l := range c.Labels {
		if l == -1 {
			continue
		}
		if b, ok := blobOf[l]; ok {
			if b != truth[i] {
				t.Fatalf("cluster %d mixes blobs %d and %d", l, b, truth[i])
			}
		} else {
			blobOf[l] = truth[i]
		}
	}
	// The vast majority of points should be clustered.
	noise := 0
	for _, l := range c.Labels {
		if l == -1 {
			noise++
		}
	}
	if noise > pts.N/5 {
		t.Fatalf("%d of %d points are noise", noise, pts.N)
	}
}

func TestCondensedInvariants(t *testing.T) {
	pts, _ := blobs(400, 4, 3)
	d, _ := hdbscanDendro(t, pts, 5)
	c := d.Condense(15)
	if len(c.Clusters) == 0 {
		t.Fatal("no condensed clusters")
	}
	if c.Clusters[0].Parent != -1 {
		t.Fatal("root cluster has a parent")
	}
	for i, cl := range c.Clusters {
		if cl.Stability < -1e-9 {
			t.Fatalf("cluster %d has negative stability %v", i, cl.Stability)
		}
		if i > 0 {
			p := c.Clusters[cl.Parent]
			if p.BirthLambda > cl.BirthLambda+1e-12 {
				t.Fatalf("cluster %d born before its parent", i)
			}
			if cl.Size > p.Size {
				t.Fatalf("cluster %d larger than its parent", i)
			}
		}
		for _, ch := range cl.Children {
			if c.Clusters[ch].Parent != int32(i) {
				t.Fatalf("child %d has wrong parent", ch)
			}
		}
		if len(cl.Children) != 0 && len(cl.Children) != 2 {
			t.Fatalf("cluster %d has %d children", i, len(cl.Children))
		}
	}
}

func TestSelectedClustersAreDisjoint(t *testing.T) {
	pts, _ := blobs(500, 5, 7)
	d, _ := hdbscanDendro(t, pts, 5)
	c := d.Condense(10)
	sel := c.Select()
	// No selected cluster may be an ancestor of another selected cluster.
	isSel := map[int32]bool{}
	for _, s := range sel {
		isSel[s] = true
	}
	for _, s := range sel {
		p := c.Clusters[s].Parent
		for p >= 0 {
			if isSel[p] {
				t.Fatalf("selected cluster %d has selected ancestor %d", s, p)
			}
			p = c.Clusters[p].Parent
		}
	}
}

func TestExtractStableHugeMinSize(t *testing.T) {
	pts, _ := blobs(200, 2, 9)
	d, _ := hdbscanDendro(t, pts, 5)
	c := d.ExtractStable(pts.N + 1)
	// Nothing can ever split: the root is the only cluster.
	if c.NumClusters != 1 {
		t.Fatalf("got %d clusters, want 1", c.NumClusters)
	}
	for i, l := range c.Labels {
		if l != 0 {
			t.Fatalf("point %d not in the root cluster", i)
		}
	}
}

func TestExtractStableSingleLinkage(t *testing.T) {
	// Works on plain EMST dendrograms too (single linkage).
	pts, truth := blobs(300, 3, 11)
	edges := emstOf(pts)
	d := BuildParallel(pts.N, edges, 0)
	c := d.ExtractStable(30)
	if c.NumClusters != 3 {
		t.Fatalf("single-linkage stable extraction found %d clusters, want 3", c.NumClusters)
	}
	blobOf := map[int32]int{}
	for i, l := range c.Labels {
		if l == -1 {
			continue
		}
		if b, ok := blobOf[l]; ok && b != truth[i] {
			t.Fatal("stable cluster mixes blobs")
		}
		blobOf[l] = truth[i]
	}
}
