// Package cowalias is the analysistest fixture for the cowalias analyzer.
// The ledger struct stands in for cluster.Cluster; only the CoW-shared
// array fields (nodes, tree, bits) are name-matched.
package cowalias

type row struct {
	LocalMB int64
	LentMB  int64
}

type shard struct {
	tree []uint64
	heap []uint64 // per-fork scratch, never shared: not a CoW field
}

type bitset struct {
	bits []uint64
}

type ledger struct {
	nodes []row
	shard shard
	idle  bitset
}

// install re-points whole slice headers: that is how CoW copies are
// published, and it never touches shared backing. Allowed anywhere.
func (l *ledger) install(n int) {
	l.nodes = make([]row, n)
	l.shard.tree = make([]uint64, 2*n)
	l.idle.bits = make([]uint64, (n+63)/64)
}

// stomp writes a node row element directly: a forked branch may still be
// reading this slot.
func (l *ledger) stomp(i int, r row) {
	l.nodes[i] = r // want `element write to CoW-shared nodes in stomp`
}

// poke writes a row field through the element: same store, one selector
// deeper.
func (l *ledger) poke(i int, mb int64) {
	l.nodes[i].LocalMB = mb // want `element write to CoW-shared nodes in poke`
}

// refile writes a lender-tree leaf and its parent outside any helper.
func (l *ledger) refile(p int, k uint64) {
	l.shard.tree[p] = k     // want `element write to CoW-shared tree in refile`
	l.shard.tree[p>>1] |= k // want `element write to CoW-shared tree in refile`
	l.shard.tree[p^1]++     // want `element write to CoW-shared tree in refile`
}

// mask compound-assigns a bitset word: reads old, writes new, both on the
// shared backing.
func (l *ledger) mask(w int, m uint64) {
	l.idle.bits[w] |= m // want `element write to CoW-shared bits in mask`
}

// sneak takes a writable alias with &nodes[i] and writes through it,
// bypassing the shared→private transition entirely.
func (l *ledger) sneak(i int, mb int64) {
	n := &l.nodes[i]
	n.LocalMB += mb // want `write through n, an alias of CoW-shared nodes, in sneak`
}

// peek takes the same alias but only reads: the read-only prelude idiom is
// free.
func (l *ledger) peek(i int) int64 {
	n := &l.nodes[i]
	return n.LocalMB + n.LentMB
}

// rebind shadows a read-only alias with a fresh variable and writes through
// the new one, which is no alias at all: objects, not names, decide.
func (l *ledger) rebind(i int, spare *row, mb int64) {
	if n := &l.nodes[i]; n.LocalMB > 0 {
		_ = n
	}
	n := spare
	n.LocalMB = mb
}

// refileCopy stores through a local copy of the shared tree's slice header:
// the copy shares the backing a forked branch may still read.
func (l *ledger) refileCopy(p int, k uint64) {
	t := l.shard.tree
	t[p] = k // want `write through t, a copy of CoW-shared tree's slice header, in refileCopy`
	var leaves = l.shard.tree[len(l.shard.tree)/2:]
	leaves[0]++ // want `write through leaves, a copy of CoW-shared tree's slice header, in refileCopy`
}

// walk reads through a header copy, as Cluster.walk does: free.
func (l *ledger) walk(p int) uint64 {
	t := l.shard.tree
	for p > 1 && t[p] != t[p^1] {
		p >>= 1
	}
	return t[p]
}

// scratchStore writes the per-fork walk heap, which is not CoW state.
func (l *ledger) scratchStore(k int, n uint64) {
	l.shard.heap[k] = n
}

// thaw is a sanctioned helper: annotated, it may store elements after
// (fixture-notionally) privatising the arrays.
//
//dmp:cowsafe
func (l *ledger) thaw(i int, r row) {
	l.nodes = append([]row(nil), l.nodes...)
	l.nodes[i] = r
}

// refileOwned is a sanctioned helper whose only restricted write goes
// through a header copy: the write counts, so the directive is not stale.
//
//dmp:cowsafe
func (l *ledger) refileOwned(p int, k uint64) {
	t := l.shard.tree
	t[p] = k
}

// idleFixture is annotated but performs no restricted write: the stale
// directive is itself reported.
//
//dmp:cowsafe
func (l *ledger) idleFixture() int { // want `stale //dmp:cowsafe on idleFixture`
	return len(l.nodes)
}

// excused carries an explicit allowlist entry; the suppression must hold
// and must not be reported stale.
func (l *ledger) excused(i int, mb int64) {
	l.nodes[i].LentMB = mb //dmplint:ignore cowalias fixture pins the allowlist path
}
