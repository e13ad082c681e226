package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hmtx/internal/stats"
)

// Schema is the schema tag of the profile document ("hmtx-prof/v1").
const Schema = "hmtx-prof/v1"

// DefaultTopLines is the heatmap depth of Snapshot when callers pass 0.
const DefaultTopLines = 16

// Doc is the machine-readable profile document. Struct field order and
// encoding/json's sorted map keys make it byte-identical across runs of the
// same configuration and across experiment-suite parallelism settings.
type Doc struct {
	Schema   string    `json:"schema"`
	Scale    int       `json:"scale,omitempty"`
	Cores    int       `json:"cores,omitempty"`
	Profiles []Profile `json:"profiles"`
}

// Profile is the cycle attribution of one simulated execution (one workload
// on one system under one paradigm).
type Profile struct {
	// Label identifies the profile for diffing, conventionally
	// "workload/system".
	Label    string `json:"label"`
	Workload string `json:"workload"`
	System   string `json:"system"`
	Paradigm string `json:"paradigm"`

	// Runs counts engine runs (1 + abort recoveries); AbortedRuns of them
	// ended in a rollback.
	Runs        int `json:"runs"`
	AbortedRuns int `json:"aborted_runs,omitempty"`

	// TotalCycles is the summed makespan of every run (the execution's
	// simulated time). CoreCycles is the sum of every core's clock across
	// runs; the per-core and summed bucket values partition it exactly.
	TotalCycles int64 `json:"total_cycles"`
	CoreCycles  int64 `json:"core_cycles"`

	// Buckets is the attribution summed over cores; zero buckets are
	// omitted. The values sum to CoreCycles.
	Buckets map[string]int64 `json:"buckets"`

	// Cores is the per-core attribution, in core order.
	Cores []CoreProfile `json:"per_core"`

	// HotLines is the contention heatmap: the top-N line addresses by
	// conflict aborts, then wasted cycles, then peer transfers.
	HotLines []LineProfile `json:"hot_lines,omitempty"`

	// ReexecutedTxs lists every transaction sequence number that had at
	// least one rolled-back attempt, with the cycles those attempts
	// wasted.
	ReexecutedTxs []TxProfile `json:"reexecuted_txs,omitempty"`
}

// CoreProfile is one core's attribution. The bucket values sum exactly to
// Cycles (the in-sim invariant).
type CoreProfile struct {
	Core    int              `json:"core"`
	Cycles  int64            `json:"cycles"`
	Buckets map[string]int64 `json:"buckets"`
}

// LineProfile is one cache line's contention record.
type LineProfile struct {
	Addr          string `json:"addr"`
	Conflicts     uint64 `json:"conflicts,omitempty"`
	Overflows     uint64 `json:"overflows,omitempty"`
	PeerTransfers uint64 `json:"peer_transfers,omitempty"`
	AccessCycles  int64  `json:"access_cycles,omitempty"`
	WastedCycles  int64  `json:"wasted_cycles,omitempty"`
}

// TxProfile is one re-executed transaction's waste record.
type TxProfile struct {
	VID             uint64 `json:"vid"`
	AbortedAttempts int    `json:"aborted_attempts"`
	WastedCycles    int64  `json:"wasted_cycles"`
}

// Snapshot renders the collector's state as a Profile. topLines bounds the
// heatmap (0 = DefaultTopLines); lines that never saw a conflict, overflow,
// peer transfer or wasted cycle are excluded. Snapshot does not reset the
// collector.
func (c *Collector) Snapshot(workload, system, paradigm string, topLines int) Profile {
	if topLines <= 0 {
		topLines = DefaultTopLines
	}
	p := Profile{
		Label:       workload + "/" + system,
		Workload:    workload,
		System:      system,
		Paradigm:    paradigm,
		Runs:        c.runs,
		AbortedRuns: c.abortedRuns,
		TotalCycles: c.totalCycles,
		Buckets:     make(map[string]int64),
	}
	for i := range c.cores {
		cs := &c.cores[i]
		cp := CoreProfile{Core: i, Cycles: cs.cycles, Buckets: make(map[string]int64)}
		for b := Bucket(0); b < NumBuckets; b++ {
			if v := cs.buckets[b]; v != 0 {
				cp.Buckets[b.String()] = v
				p.Buckets[b.String()] += v
			}
		}
		p.CoreCycles += cs.cycles
		p.Cores = append(p.Cores, cp)
	}

	// Heatmap: interesting lines, hottest first. The numeric address is the
	// explicit final sort key: LineProfile.Addr is a hex string, which does
	// not order numerically ("0x9" > "0x10"), so tie-breaking must happen
	// here, before formatting, rather than lean on a stable sort of
	// pre-sorted input surviving future edits.
	type hotLine struct {
		addr uint64
		lp   LineProfile
	}
	var hot []hotLine
	for _, a := range c.lineAddrs {
		l := c.lines[a]
		if l.conflicts == 0 && l.overflows == 0 && l.peer == 0 && l.wastedCycles == 0 {
			continue
		}
		hot = append(hot, hotLine{addr: a, lp: LineProfile{
			Addr:          fmt.Sprintf("%#x", a),
			Conflicts:     l.conflicts,
			Overflows:     l.overflows,
			PeerTransfers: l.peer,
			AccessCycles:  l.accessCycles,
			WastedCycles:  l.wastedCycles,
		}})
	}
	sort.Slice(hot, func(i, j int) bool {
		a, b := &hot[i].lp, &hot[j].lp
		if a.Conflicts+a.Overflows != b.Conflicts+b.Overflows {
			return a.Conflicts+a.Overflows > b.Conflicts+b.Overflows
		}
		if a.WastedCycles != b.WastedCycles {
			return a.WastedCycles > b.WastedCycles
		}
		if a.PeerTransfers != b.PeerTransfers {
			return a.PeerTransfers > b.PeerTransfers
		}
		return hot[i].addr < hot[j].addr
	})
	if len(hot) > topLines {
		hot = hot[:topLines]
	}
	for i := range hot {
		p.HotLines = append(p.HotLines, hot[i].lp)
	}

	seqs := append([]uint64(nil), c.txSeqs...)
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		t := c.txs[s]
		p.ReexecutedTxs = append(p.ReexecutedTxs, TxProfile{
			VID: s, AbortedAttempts: t.attempts, WastedCycles: t.wasted,
		})
	}
	return p
}

// CheckInvariant verifies that the profile's buckets partition its core
// cycles: per core and in total, bucket values sum exactly to the cycle
// counts. It returns nil when the invariant holds.
func (p *Profile) CheckInvariant() error {
	var coreSum, bucketSum int64
	for i := range p.Cores {
		cp := &p.Cores[i]
		var s int64
		for _, name := range BucketNames() {
			s += cp.Buckets[name]
		}
		if s != cp.Cycles {
			return fmt.Errorf("prof: %s core %d: buckets sum to %d, cycles %d", p.Label, cp.Core, s, cp.Cycles)
		}
		coreSum += cp.Cycles
		bucketSum += s
	}
	if coreSum != p.CoreCycles {
		return fmt.Errorf("prof: %s: per-core cycles sum to %d, core_cycles %d", p.Label, coreSum, p.CoreCycles)
	}
	var total int64
	for _, name := range BucketNames() {
		total += p.Buckets[name]
	}
	if total != bucketSum {
		return fmt.Errorf("prof: %s: summed buckets %d, per-core buckets %d", p.Label, total, bucketSum)
	}
	return nil
}

// BucketNames returns every bucket's JSON name in declaration order.
func BucketNames() []string {
	out := make([]string, NumBuckets)
	for i := range out {
		out[i] = Bucket(i).String()
	}
	return out
}

// ReadDoc parses one profile document, rejecting any data after it, and
// verifies its schema tag and that every profile's buckets partition its
// core cycles (CheckInvariant).
func ReadDoc(r io.Reader) (Doc, error) {
	var doc Doc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return doc, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return doc, fmt.Errorf("prof: data after the document")
	}
	if doc.Schema != Schema {
		return doc, fmt.Errorf("prof: unexpected schema %q (want %q)", doc.Schema, Schema)
	}
	for i := range doc.Profiles {
		if err := doc.Profiles[i].CheckInvariant(); err != nil {
			return doc, err
		}
	}
	return doc, nil
}

// pct formats v as a percentage of total.
func pct(v, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(v)/float64(total))
}

// Text renders the profile as aligned tables: the bucket breakdown with
// per-core columns, the contention heatmap, and the re-execution records.
func (p *Profile) Text() string {
	out := fmt.Sprintf("profile: %s (%s, %d run(s), %d aborted)\n", p.Label, p.Paradigm, p.Runs, p.AbortedRuns)
	out += fmt.Sprintf("total cycles (makespan): %d   attributed core cycles: %d\n\n", p.TotalCycles, p.CoreCycles)

	var t stats.Table
	header := []string{"bucket", "cycles", "share"}
	for i := range p.Cores {
		header = append(header, fmt.Sprintf("core%d", p.Cores[i].Core))
	}
	t.Add(header...)
	for _, name := range BucketNames() {
		if p.Buckets[name] == 0 {
			continue
		}
		row := []string{name, fmt.Sprint(p.Buckets[name]), pct(p.Buckets[name], p.CoreCycles)}
		for i := range p.Cores {
			row = append(row, fmt.Sprint(p.Cores[i].Buckets[name]))
		}
		t.Add(row...)
	}
	totalRow := []string{"total", fmt.Sprint(p.CoreCycles), pct(p.CoreCycles, p.CoreCycles)}
	for i := range p.Cores {
		totalRow = append(totalRow, fmt.Sprint(p.Cores[i].Cycles))
	}
	t.Add(totalRow...)
	out += t.String()

	if len(p.HotLines) > 0 {
		var h stats.Table
		h.Add("line", "conflicts", "overflows", "peer xfers", "access cyc", "wasted cyc")
		for i := range p.HotLines {
			l := &p.HotLines[i]
			h.AddF(l.Addr, l.Conflicts, l.Overflows, l.PeerTransfers, l.AccessCycles, l.WastedCycles)
		}
		out += "\ncontention heatmap (top lines):\n" + h.String()
	}

	if len(p.ReexecutedTxs) > 0 {
		var r stats.Table
		r.Add("vid", "aborted attempts", "wasted cycles")
		for i := range p.ReexecutedTxs {
			tx := &p.ReexecutedTxs[i]
			r.AddF(tx.VID, tx.AbortedAttempts, tx.WastedCycles)
		}
		out += "\nre-executed transactions:\n" + r.String()
	}
	return out
}

// WriteFolded writes the document's per-core bucket attribution in folded
// stack format ("frame;frame value" lines), directly consumable by standard
// flamegraph tooling. Stacks are label;coreN;bucket.
func WriteFolded(w io.Writer, doc Doc) error {
	for i := range doc.Profiles {
		p := &doc.Profiles[i]
		for j := range p.Cores {
			cp := &p.Cores[j]
			for _, name := range BucketNames() {
				if v := cp.Buckets[name]; v != 0 {
					if _, err := fmt.Fprintf(w, "%s;core%d;%s %d\n", p.Label, cp.Core, name, v); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// DiffText renders a per-bucket comparison of two profiles: cycles, deltas,
// and each bucket's share of its profile's attributed cycles, making
// attribution shifts (e.g. SMTX validation overhead vs HMTX commit cycles)
// directly visible.
func DiffText(a, b *Profile) string {
	out := fmt.Sprintf("diff: %s -> %s\n", a.Label, b.Label)
	out += fmt.Sprintf("total cycles: %d -> %d (%+d)   attributed: %d -> %d\n\n",
		a.TotalCycles, b.TotalCycles, b.TotalCycles-a.TotalCycles, a.CoreCycles, b.CoreCycles)
	var t stats.Table
	t.Add("bucket", "old cycles", "new cycles", "delta", "old share", "new share")
	for _, name := range BucketNames() {
		ov, nv := a.Buckets[name], b.Buckets[name]
		if ov == 0 && nv == 0 {
			continue
		}
		t.Add(name, fmt.Sprint(ov), fmt.Sprint(nv), fmt.Sprintf("%+d", nv-ov),
			pct(ov, a.CoreCycles), pct(nv, b.CoreCycles))
	}
	t.Add("total", fmt.Sprint(a.CoreCycles), fmt.Sprint(b.CoreCycles),
		fmt.Sprintf("%+d", b.CoreCycles-a.CoreCycles), "100.0%", "100.0%")
	return out + t.String()
}
