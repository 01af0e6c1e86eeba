package typegraph

// Search answers Preserves for many combinations of one graph's
// candidates, as Algorithm 2's maximal-set search asks them, and answers
// most of them from a memo of earlier failures.
//
// The memo is exact. The check of a node n reads only the erased and
// vanished stamps of nodes that n reaches, so its outcome under a
// combination S depends only on S ∩ C(n), where C(n) is the set of
// candidates whose erase or vanish nodes n reaches. When n fails under S,
// the Search records the pair (S ∩ C(n), C(n) \ S); any later combination
// that contains the first set and misses the second has the same
// projection onto C(n), so n fails under it too. A superset of S that
// adds a member of C(n) is not answered from that failure: the added
// candidate may vanish n or feed it.
//
// A Search builds its masks on the first query and rebuilds them, and
// forgets its failures, whenever the graph has changed since.
type Search struct {
	g     *Graph
	cands []*Candidate

	ix    *index
	words int
	// reach holds C(n) for every node n: words bits per node, bit i set
	// when n reaches an erase or vanish node of cands[i].
	reach []uint64
	// fails holds one (in, out) pair of masks per recorded failure,
	// 2*words words each.
	fails []uint64
	mask  []uint64
}

// NewSearch returns a Search over the given candidates of g. Queries name
// candidates by their position in cands.
func NewSearch(g *Graph, cands []*Candidate) *Search {
	return &Search{g: g, cands: cands}
}

// Preserves reports Preserves(g, cands[idx[0]], cands[idx[1]], ...).
func (s *Search) Preserves(idx []int) bool {
	// s.ix keeps the index it was built on alive, so a rebuilt index
	// never has the same address.
	ix := s.g.dense()
	if ix != s.ix {
		s.build(ix)
	}
	clear(s.mask)
	for _, i := range idx {
		s.mask[i/64] |= 1 << (i % 64)
	}
	for f := 0; f < len(s.fails); f += 2 * s.words {
		if s.matches(s.fails[f : f+2*s.words]) {
			return false
		}
	}
	ix.epoch++
	for _, i := range idx {
		ix.stampOne(s.cands[i], true)
	}
	n, ok := ix.check()
	if !ok {
		c := s.reach[int(n)*s.words : int(n+1)*s.words]
		for j, m := range s.mask {
			s.fails = append(s.fails, m&c[j])
		}
		for j, m := range s.mask {
			s.fails = append(s.fails, c[j]&^m)
		}
	}
	return ok
}

// matches reports whether the query mask contains every candidate of the
// failure's in set and none of its out set.
func (s *Search) matches(f []uint64) bool {
	in, out := f[:s.words], f[s.words:]
	for j, m := range s.mask {
		if in[j]&^m != 0 || out[j]&m != 0 {
			return false
		}
	}
	return true
}

// build computes C(n) for every node of ix, one reverse-reach walk per
// candidate, and drops the failures recorded against an older index.
func (s *Search) build(ix *index) {
	s.ix, s.words = ix, (len(s.cands)+63)/64
	s.reach = make([]uint64, len(ix.nodes)*s.words)
	s.fails = s.fails[:0]
	s.mask = make([]uint64, s.words)
	for i, c := range s.cands {
		ix.epoch++
		for _, n := range c.EraseSet {
			s.reachFrom(n, i)
		}
		for _, n := range c.VanishNodes {
			s.reachFrom(n, i)
		}
	}
}

// reachFrom sets bit i on n and every node that reaches it.
func (s *Search) reachFrom(n NodeID, i int) {
	if s.ix.marked[n] == s.ix.epoch {
		return
	}
	s.ix.marked[n] = s.ix.epoch
	s.reach[int(n)*s.words+i/64] |= 1 << (i % 64)
	for _, from := range s.ix.into(n) {
		s.reachFrom(from, i)
	}
}
