package dendrogram

import "math"

// Stability-based flat cluster extraction for HDBSCAN* (Campello et al.,
// cited as [16] in the paper): condense the dendrogram with a minimum
// cluster size, score each condensed cluster by its excess of mass
// (stability), and select the set of non-overlapping clusters maximizing
// total stability. This is the standard "automatic" flat clustering the
// HDBSCAN* hierarchy exists to support, complementing the fixed-radius
// Cutter/CutTree extraction.

// CondensedCluster is one node of the condensed cluster tree.
type CondensedCluster struct {
	// ID is the dendrogram node id the cluster was born at.
	ID int32
	// Parent indexes Condensed.Clusters (-1 for the root cluster).
	Parent int32
	// BirthLambda is 1/height at which the cluster splits off its parent.
	BirthLambda float64
	// Stability is sum over member points of (lambda_leave - BirthLambda).
	Stability float64
	// Size is the number of points that ever belong to the cluster.
	Size int32
	// Children indexes Condensed.Clusters.
	Children []int32
	// Selected marks the cluster as part of the optimal flat clustering.
	Selected bool
}

// Condensed is a condensed cluster tree with per-cluster stabilities.
type Condensed struct {
	Clusters []CondensedCluster
	// leafCluster[p] is the index of the smallest condensed cluster that
	// point p ever belongs to, with the lambda at which p leaves it.
	leafCluster []int32
	leaveLambda []float64
	d           *Dendrogram
}

// invHeight maps a merge height to a density lambda = 1/height; zero
// heights (duplicate points) map to +Inf.
func invHeight(h float64) float64 {
	if h <= 0 {
		return math.Inf(1)
	}
	return 1 / h
}

// Condense builds the condensed cluster tree: descending from the root,
// a dendrogram split is a true split only when both sides have at least
// minClusterSize points; otherwise the small side's points simply "fall
// out" of the current cluster at that height.
func (d *Dendrogram) Condense(minClusterSize int) *Condensed {
	if minClusterSize < 1 {
		minClusterSize = 1
	}
	sz := d.Sizes()
	c := &Condensed{
		leafCluster: make([]int32, d.N),
		leaveLambda: make([]float64, d.N),
		d:           d,
	}
	if d.N == 0 {
		return c // no points, no clusters
	}
	// Root cluster is born at lambda = 0.
	c.Clusters = append(c.Clusters, CondensedCluster{ID: d.Root, Parent: -1, BirthLambda: 0, Size: sz[d.Root]})
	type frame struct {
		node    int32 // dendrogram node
		cluster int32 // condensed cluster the node's points belong to
	}
	stack := []frame{{node: d.Root, cluster: 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.IsLeaf(f.node) {
			// Singleton point falls out of its cluster when the cluster
			// dissolves entirely; handled via fallOut below when reached
			// through a sub-threshold branch, or stays to the end.
			c.leafCluster[f.node] = f.cluster
			c.leaveLambda[f.node] = math.Inf(1)
			continue
		}
		l, r := d.Children(f.node)
		lam := invHeight(d.HeightOf(f.node))
		bigL := int(sz[l]) >= minClusterSize
		bigR := int(sz[r]) >= minClusterSize
		switch {
		case bigL && bigR:
			// True split: two new clusters born at this lambda.
			for _, ch := range [2]int32{l, r} {
				ci := int32(len(c.Clusters))
				c.Clusters = append(c.Clusters, CondensedCluster{
					ID: ch, Parent: f.cluster, BirthLambda: lam, Size: sz[ch],
				})
				c.Clusters[f.cluster].Children = append(c.Clusters[f.cluster].Children, ci)
				stack = append(stack, frame{node: ch, cluster: ci})
			}
		case bigL:
			c.fallOut(r, f.cluster, lam)
			stack = append(stack, frame{node: l, cluster: f.cluster})
		case bigR:
			c.fallOut(l, f.cluster, lam)
			stack = append(stack, frame{node: r, cluster: f.cluster})
		default:
			// Cluster dissolves: all points leave at this lambda.
			c.fallOut(l, f.cluster, lam)
			c.fallOut(r, f.cluster, lam)
		}
	}
	c.computeStabilities()
	return c
}

// fallOut records every point under node as leaving cluster ci at lambda.
func (c *Condensed) fallOut(node, ci int32, lambda float64) {
	stack := []int32{node}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.d.IsLeaf(x) {
			c.leafCluster[x] = ci
			c.leaveLambda[x] = lambda
			continue
		}
		l, r := c.d.Children(x)
		stack = append(stack, l, r)
	}
}

func (c *Condensed) computeStabilities() {
	// A cluster's stability is the excess of mass
	//
	//	sum_p (lambda_leave(p) - lambda_birth),
	//
	// where a point leaves when it falls out individually or when the
	// cluster truly splits (all surviving points leave at the split
	// lambda, i.e. the children's birth lambda). Infinite lambdas (from
	// zero merge heights, e.g. duplicate points) are capped at the largest
	// finite lambda so stabilities stay finite.
	maxLam := 0.0
	for p := 0; p < c.d.N; p++ {
		if !math.IsInf(c.leaveLambda[p], 1) {
			maxLam = math.Max(maxLam, c.leaveLambda[p])
		}
	}
	for i := range c.Clusters {
		if b := c.Clusters[i].BirthLambda; !math.IsInf(b, 1) {
			maxLam = math.Max(maxLam, b)
		}
	}
	if maxLam == 0 {
		maxLam = 1
	}
	cap := func(lam float64) float64 {
		if math.IsInf(lam, 1) {
			return maxLam
		}
		return lam
	}
	// Individual fall-outs contribute to the cluster they fell from.
	for p := 0; p < c.d.N; p++ {
		ci := c.leafCluster[p]
		c.Clusters[ci].Stability += cap(c.leaveLambda[p]) - cap(c.Clusters[ci].BirthLambda)
	}
	// Survivors of a true split leave the parent at the children's birth.
	for i := range c.Clusters {
		cl := &c.Clusters[i]
		for _, ch := range cl.Children {
			child := &c.Clusters[ch]
			cl.Stability += float64(child.Size) * (cap(child.BirthLambda) - cap(cl.BirthLambda))
		}
	}
}

// Select runs the bottom-up excess-of-mass optimization: a cluster is
// selected when its own stability exceeds the total stability of its best
// selected descendants. It returns the selected cluster indices.
func (c *Condensed) Select() []int32 {
	// Process clusters in reverse creation order (children have larger
	// indices than parents by construction).
	best := make([]float64, len(c.Clusters))
	for i := len(c.Clusters) - 1; i >= 0; i-- {
		cl := &c.Clusters[i]
		childSum := 0.0
		for _, ch := range cl.Children {
			childSum += best[ch]
		}
		if len(cl.Children) == 0 || cl.Stability >= childSum {
			best[i] = cl.Stability
			cl.Selected = true
			// Deselect all descendants.
			c.deselectBelow(int32(i))
		} else {
			best[i] = childSum
			cl.Selected = false
		}
	}
	// The root is never a meaningful flat cluster unless it has no children.
	if len(c.Clusters) > 1 && c.Clusters[0].Selected {
		c.Clusters[0].Selected = false
		for _, ch := range c.Clusters[0].Children {
			c.reselectBest(ch)
		}
	}
	var out []int32
	for i := range c.Clusters {
		if c.Clusters[i].Selected {
			out = append(out, int32(i))
		}
	}
	return out
}

func (c *Condensed) deselectBelow(i int32) {
	for _, ch := range c.Clusters[i].Children {
		if c.Clusters[ch].Selected {
			c.Clusters[ch].Selected = false
		}
		c.deselectBelow(ch)
	}
}

// reselectBest re-marks the best selection under cluster i after the root
// is forced off: i itself if it was the winner of its subtree, else its
// children's winners recursively.
func (c *Condensed) reselectBest(i int32) {
	cl := &c.Clusters[i]
	childSum := 0.0
	for _, ch := range cl.Children {
		childSum += c.subtreeBest(ch)
	}
	if len(cl.Children) == 0 || cl.Stability >= childSum {
		cl.Selected = true
		return
	}
	for _, ch := range cl.Children {
		c.reselectBest(ch)
	}
}

func (c *Condensed) subtreeBest(i int32) float64 {
	cl := &c.Clusters[i]
	childSum := 0.0
	for _, ch := range cl.Children {
		childSum += c.subtreeBest(ch)
	}
	if len(cl.Children) == 0 || cl.Stability >= childSum {
		return cl.Stability
	}
	return childSum
}

// ExtractStable computes the stability-optimal flat clustering with the
// given minimum cluster size. Points that never belong to a selected
// cluster are noise.
func (d *Dendrogram) ExtractStable(minClusterSize int) Clustering {
	c := d.Condense(minClusterSize)
	c.Select()
	// Map each point to its innermost selected ancestor cluster.
	labels := make([]int32, d.N)
	sel := make(map[int32]int32) // cluster index -> label
	next := int32(0)
	for i := range c.Clusters {
		if c.Clusters[i].Selected {
			sel[int32(i)] = next
			next++
		}
	}
	for p := 0; p < d.N; p++ {
		labels[p] = -1
		ci := c.leafCluster[p]
		for ci >= 0 {
			if lbl, ok := sel[ci]; ok {
				labels[p] = lbl
				break
			}
			ci = c.Clusters[ci].Parent
		}
	}
	return Clustering{Labels: labels, NumClusters: int(next)}
}
