package metrics

import (
	"fmt"
	"sort"
	"strings"

	"hmtx/internal/obs"
	"hmtx/internal/stats"
)

// ConflictSchema is the schema tag of the conflict-graph document.
const ConflictSchema = "hmtx-conflicts/v1"

// DefaultCascadeWindow is the cascade-detection window (simulated cycles)
// used when callers pass 0 to NewRecorder: two abort edges closer together
// than this are considered part of one cascade.
const DefaultCascadeWindow = 512

// EdgeKind classifies one who-aborted-whom edge by the abort mechanism that
// produced it; the names match obs.AbortClass.
type EdgeKind uint8

const (
	// EdgeConflict is a store-order dependence violation (§4.3): the
	// aborter's store found the victim's later access mark on the line.
	EdgeConflict EdgeKind = iota
	// EdgeSLA is an SLA mismatch (§5.1): the victim's speculatively loaded
	// value changed before the load's branch resolved. The aborter is
	// unknown to hardware (the conflicting store already retired), so
	// edges of this kind have Aborter 0.
	EdgeSLA
	// EdgeOverflow is a speculative-line overflow past the last-level
	// cache (§5.4); the machine is the aborter (Aborter 0).
	EdgeOverflow
	// EdgeExplicit is a software abortMTX (§3.2); the victim aborted
	// itself.
	EdgeExplicit

	numEdgeKinds
)

var edgeKindNames = [numEdgeKinds]string{"conflict", "sla-mismatch", "overflow", "explicit"}

// String returns the edge kind's stable name.
func (k EdgeKind) String() string {
	if k < numEdgeKinds {
		return edgeKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Edge is one recorded abort edge: at Cycle, the transaction Aborter caused
// the rollback of transaction Victim over line Addr. VIDs are global
// program-order sequence numbers (vid.Seq); Aborter 0 means the machine or an
// already-retired instruction, not a live transaction.
type Edge struct {
	Cycle   int64    `json:"cycle"`
	Aborter uint64   `json:"aborter"`
	Victim  uint64   `json:"victim"`
	Addr    uint64   `json:"addr"`
	Kind    EdgeKind `json:"-"`
	// KindName is Kind's stable name, the serialised form.
	KindName string `json:"kind"`
}

// Recorder captures the causal conflict structure of an execution: every
// abort edge from the memsys/engine abort path, in simulated-time order (the
// engine's serialised scheduler appends them as they happen). The nil value
// is the valid disabled instrument.
type Recorder struct {
	window int64 // cascade-detection window
	now    int64 // current global simulated cycle, stamped by the engine
	edges  []Edge
}

// NewRecorder returns an empty recorder with the given cascade window in
// simulated cycles (0 = DefaultCascadeWindow).
func NewRecorder(cascadeWindow int64) *Recorder {
	if cascadeWindow <= 0 {
		cascadeWindow = DefaultCascadeWindow
	}
	return &Recorder{window: cascadeWindow}
}

// Enabled reports whether conflict recording is active: the emit-site guard,
// safe (and false) on a nil recorder.
func (r *Recorder) Enabled() bool { return r != nil }

// Fold folds one event of the simulation's stream. A KStep stamps
// subsequent edges with its global simulated cycle (Arg): the memory system,
// which has no clock, records edges at the stamped time. A KConflict, a
// KOverflowAbort (the machine aborts victim Aux) and a KExplicitAbort (the
// victim aborts itself) each record one edge. Every other kind is ignored.
func (r *Recorder) Fold(e obs.Event) {
	if recKinds.Has(e.Kind) {
		r.fold(e)
	}
}

// recKinds are the kinds Fold reads.
var recKinds = obs.KindsOf(obs.KStep, obs.KConflict, obs.KOverflowAbort, obs.KExplicitAbort)

func (r *Recorder) fold(e obs.Event) {
	aborter, victim, kind := e.Aux, e.VID, EdgeKind(e.Sub)
	switch e.Kind {
	case obs.KStep:
		r.now = int64(e.Arg)
		return
	case obs.KOverflowAbort:
		aborter, victim, kind = 0, e.Aux, EdgeOverflow
	case obs.KExplicitAbort:
		aborter, kind = e.VID, EdgeExplicit
	}
	r.edges = append(r.edges, Edge{
		Cycle:    r.now,
		Aborter:  aborter,
		Victim:   victim,
		Addr:     e.Addr,
		Kind:     kind,
		KindName: kind.String(),
	})
}

// Edges returns the recorded edges in simulated-time order.
func (r *Recorder) Edges() []Edge {
	if r == nil {
		return nil
	}
	return r.edges
}

// Cascade is one abort cascade: a maximal set of edges chained closer
// together than the cascade window, with the transactions they connect. A
// cascade with one edge is an isolated abort; longer cascades are the abort
// storms the Zipfian-skew roadmap item is about.
type Cascade struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Edges is the number of abort edges in the cascade.
	Edges int `json:"edges"`
	// Txs is every distinct transaction involved (aborter or victim,
	// excluding the machine pseudo-node 0), ascending.
	Txs []uint64 `json:"txs"`
}

// AddrRank is one conflicting line address with its edge counts by kind,
// ranked by total involvement.
type AddrRank struct {
	Addr      string `json:"addr"`
	Total     uint64 `json:"total"`
	Conflicts uint64 `json:"conflicts,omitempty"`
	SLAs      uint64 `json:"sla_mismatches,omitempty"`
	Overflows uint64 `json:"overflows,omitempty"`
	Explicits uint64 `json:"explicits,omitempty"`
}

// Graph is the serialisable conflict DAG of one execution: nodes are
// transactions, edges are who-aborted-whom with the conflicting address,
// plus the derived cascade and dominant-address structure.
type Graph struct {
	Label string `json:"label"`
	// Window is the cascade-detection window in simulated cycles.
	Window int64 `json:"window"`
	// Nodes is the number of distinct transactions in the graph.
	Nodes    int       `json:"nodes"`
	Edges    []Edge    `json:"edges"`
	Cascades []Cascade `json:"cascades,omitempty"`
	// TopAddrs ranks the conflicting line addresses by edge count
	// (descending, ties by ascending address).
	TopAddrs []AddrRank `json:"top_addrs,omitempty"`
}

// ConflictDoc is the machine-readable conflict-graph document
// ("hmtx-conflicts/v1").
type ConflictDoc struct {
	Schema string  `json:"schema"`
	Scale  int     `json:"scale,omitempty"`
	Cores  int     `json:"cores,omitempty"`
	Graphs []Graph `json:"graphs"`
}

// Snapshot builds the conflict graph under the given label: it partitions the
// time-ordered edge list into cascades (edges chained within the window form
// one cascade; within a chain, connected components over the aborter/victim
// node sets are split apart) and ranks the dominant conflict addresses.
func (r *Recorder) Snapshot(label string) Graph {
	g := Graph{Label: label, Window: r.window, Edges: append(make([]Edge, 0, len(r.edges)), r.edges...)}

	// Distinct transaction nodes, excluding the machine pseudo-node 0.
	nodeSet := make(map[uint64]bool)
	for _, e := range r.edges {
		if e.Aborter != 0 {
			nodeSet[e.Aborter] = true
		}
		if e.Victim != 0 {
			nodeSet[e.Victim] = true
		}
	}
	g.Nodes = len(nodeSet)

	g.Cascades = r.cascades()
	g.TopAddrs = r.topAddrs()
	return g
}

// cascades partitions the time-ordered edges into chains no sparser than the
// window, then splits each chain into connected components over its
// transaction nodes. Edges whose transactions are all 0 (machine-only, e.g.
// overflow of a non-speculative line) stay singleton cascades.
func (r *Recorder) cascades() []Cascade {
	var out []Cascade
	for lo := 0; lo < len(r.edges); {
		hi := lo + 1
		for hi < len(r.edges) && r.edges[hi].Cycle-r.edges[hi-1].Cycle <= r.window {
			hi++
		}
		out = append(out, components(r.edges[lo:hi])...)
		lo = hi
	}
	return out
}

// components splits one time-chained edge run into connected components via
// union-find over transaction IDs. Deterministic: components are emitted in
// order of their earliest edge.
func components(edges []Edge) []Cascade {
	parent := make(map[uint64]uint64)
	var find func(x uint64) uint64
	find = func(x uint64) uint64 {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b uint64) { parent[find(a)] = find(b) }

	for i := range edges {
		e := &edges[i]
		if e.Aborter != 0 && e.Victim != 0 {
			union(e.Aborter, e.Victim)
		}
	}

	// Group edges by the root of their first non-zero endpoint; edges with
	// no transaction endpoint are their own cascade.
	// txs collects distinct transactions in first-touch order via a seen
	// map plus an explicit slice (the detrange rule: map iteration order
	// must never reach output).
	type group struct {
		first int // index of earliest edge, for deterministic ordering
		cas   Cascade
		seen  map[uint64]bool
	}
	groups := make(map[uint64]*group)
	var order []*group
	add := func(g *group, i int, e *Edge) {
		if g.cas.Edges == 0 {
			g.first = i
			g.cas.Start = e.Cycle
		}
		g.cas.Edges++
		g.cas.End = e.Cycle
		for _, n := range [2]uint64{e.Aborter, e.Victim} {
			if n != 0 && !g.seen[n] {
				g.seen[n] = true
				g.cas.Txs = append(g.cas.Txs, n)
			}
		}
	}
	for i := range edges {
		e := &edges[i]
		node := e.Victim
		if node == 0 {
			node = e.Aborter
		}
		if node == 0 {
			g := &group{seen: map[uint64]bool{}}
			add(g, i, e)
			order = append(order, g)
			continue
		}
		root := find(node)
		g, ok := groups[root]
		if !ok {
			g = &group{seen: map[uint64]bool{}}
			groups[root] = g
			order = append(order, g)
		}
		add(g, i, e)
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].first < order[j].first })
	var out []Cascade
	for _, g := range order {
		sort.Slice(g.cas.Txs, func(i, j int) bool { return g.cas.Txs[i] < g.cas.Txs[j] })
		out = append(out, g.cas)
	}
	return out
}

// topAddrs ranks every conflicting line address by total edge count
// descending, ties broken by ascending address.
func (r *Recorder) topAddrs() []AddrRank {
	type counts struct {
		byKind [numEdgeKinds]uint64
		total  uint64
	}
	m := make(map[uint64]*counts)
	var addrs []uint64
	for _, e := range r.edges {
		c, ok := m[e.Addr]
		if !ok {
			c = &counts{}
			m[e.Addr] = c
			addrs = append(addrs, e.Addr)
		}
		c.byKind[e.Kind]++
		c.total++
	}
	sort.Slice(addrs, func(i, j int) bool {
		a, b := m[addrs[i]], m[addrs[j]]
		if a.total != b.total {
			return a.total > b.total
		}
		return addrs[i] < addrs[j]
	})
	var out []AddrRank
	for _, a := range addrs {
		c := m[a]
		out = append(out, AddrRank{
			Addr:      fmt.Sprintf("%#x", a),
			Total:     c.total,
			Conflicts: c.byKind[EdgeConflict],
			SLAs:      c.byKind[EdgeSLA],
			Overflows: c.byKind[EdgeOverflow],
			Explicits: c.byKind[EdgeExplicit],
		})
	}
	return out
}

// DOT renders the graph in Graphviz dot syntax: transaction nodes, one edge
// per abort with the conflicting address and cycle as its label. Node 0 (the
// machine) is rendered as a distinct box.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Label)
	b.WriteString("  rankdir=LR;\n  node [shape=ellipse];\n")
	hasMachine := false
	seen := make(map[uint64]bool)
	var nodes []uint64
	for _, e := range g.Edges {
		for _, n := range [2]uint64{e.Aborter, e.Victim} {
			if n == 0 {
				hasMachine = true
			} else if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	if hasMachine {
		b.WriteString("  machine [label=\"machine\", shape=box];\n")
	}
	for _, n := range nodes {
		fmt.Fprintf(&b, "  tx%d [label=\"tx %d\"];\n", n, n)
	}
	name := func(n uint64) string {
		if n == 0 {
			return "machine"
		}
		return fmt.Sprintf("tx%d", n)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %s -> %s [label=\"%#x @%d (%s)\"];\n",
			name(e.Aborter), name(e.Victim), e.Addr, e.Cycle, e.KindName)
	}
	b.WriteString("}\n")
	return b.String()
}

// Text renders the graph summary: edge and cascade counts, the largest
// cascades, and the dominant conflict addresses.
func (g *Graph) Text() string {
	out := fmt.Sprintf("conflict graph: %s (%d txs, %d edges, %d cascades; window %d)\n",
		g.Label, g.Nodes, len(g.Edges), len(g.Cascades), g.Window)
	if len(g.Cascades) > 0 {
		var t stats.Table
		t.Add("cascade", "start", "end", "edges", "txs")
		for i, c := range g.Cascades {
			txs := make([]string, len(c.Txs))
			for j, tx := range c.Txs {
				txs[j] = fmt.Sprint(tx)
			}
			t.AddF(i, c.Start, c.End, c.Edges, strings.Join(txs, ","))
		}
		out += "\nabort cascades:\n" + t.String()
	}
	if len(g.TopAddrs) > 0 {
		var t stats.Table
		t.Add("line", "edges", "conflicts", "sla", "overflow", "explicit")
		for _, a := range g.TopAddrs {
			t.AddF(a.Addr, a.Total, a.Conflicts, a.SLAs, a.Overflows, a.Explicits)
		}
		out += "\ndominant conflict addresses:\n" + t.String()
	}
	return out
}
