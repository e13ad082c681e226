package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestParseCategories(t *testing.T) {
	cases := []struct {
		in   string
		want Category
		err  bool
	}{
		{"", CatAll, false},
		{"all", CatAll, false},
		{"bus", CatBus, false},
		{"bus,txn", CatBus | CatTxn, false},
		{" sla , queue ", CatSLA | CatQueue, false},
		{"nope", 0, true},
	}
	for _, c := range cases {
		got, err := ParseCategories(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseCategories(%q): err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseCategories(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// setTime sets the time emit stamps, as a KStep does.
func (t *Tracer) setTime(cycle int64) { t.now = cycle }

// Every traced kind has a category; every kind from KStep on has none, so
// no -trace-cats mask selects it.
func TestKindCategoryTotal(t *testing.T) {
	for k := KBusRequest; k < kindLimit; k++ {
		if (k.Category() == 0) != (k >= KStep) {
			t.Errorf("kind %v has category %v", k, k.Category())
		}
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Mask() != 0 {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Fold(Event{Kind: KStep, Cycle: 5}) // must not panic
	tr.Fold(Event{Kind: KTxBegin})        // must not panic
	if tr.Count() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerRingAndFilter(t *testing.T) {
	tr := NewTracer(CatBus, 4)
	tr.setTime(10)
	tr.emit(Event{Kind: KBusRequest, Core: 0})
	tr.emit(Event{Kind: KTxBegin, Core: 0, VID: 1}) // filtered out
	if tr.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (txn category is disabled)", tr.Count())
	}
	for i := 2; i <= 6; i++ {
		tr.setTime(int64(10 * i))
		tr.emit(Event{Kind: KBusRequest, Core: int32(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	if evs[0].Core != 3 || evs[3].Core != 6 {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	if evs[3].Cycle != 60 {
		t.Fatalf("SetTime not stamped: %+v", evs[3])
	}
}

func TestTextSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(CatAll, 0)
	tr.Attach(NewTextSink(&buf))
	tr.setTime(1234)
	tr.emit(Event{Kind: KTxBegin, Core: 1, VID: 3})
	tr.emit(Event{Kind: KStateChange, Core: -1, Addr: 0x1a40, Note: "E->S-M"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"1234: txn", "tx_begin core1 vid=3", "cache", `line=0x1a40`, `"E->S-M"`} {
		if !strings.Contains(out, want) {
			t.Errorf("text log missing %q:\n%s", want, out)
		}
	}
}

func TestChromeSinkValidDeterministicJSON(t *testing.T) {
	emitAll := func() []byte {
		var buf bytes.Buffer
		tr := NewTracer(CatAll, 0)
		tr.Attach(NewChromeSink(&buf))
		tr.setTime(100)
		tr.emit(Event{Kind: KTxBegin, Core: 0, VID: 1})
		tr.setTime(150)
		tr.emit(Event{Kind: KBusRequest, Core: 0, Addr: 0x40, Note: "load"})
		tr.setTime(300)
		tr.emit(Event{Kind: KSpanBegin, Core: 1, Note: "smtx.validate", VID: 1})
		tr.setTime(400)
		tr.emit(Event{Kind: KSpanEnd, Core: 1, Note: "smtx.validate", VID: 1})
		tr.setTime(500)
		tr.emit(Event{Kind: KTxCommit, Core: 0, VID: 1, Arg: 400})
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := emitAll(), emitAll()
	if !bytes.Equal(a, b) {
		t.Fatal("chrome trace differs across identical runs")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, a)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	last := doc.TraceEvents[4]
	if last["ph"] != "X" || last["dur"] != float64(400) || last["ts"] != float64(100) {
		t.Fatalf("tx_commit not rendered as a complete event: %v", last)
	}
}

func TestChromeSinkEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace has %d events", len(doc.TraceEvents))
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
}

func TestChromeSinkNameEscaping(t *testing.T) {
	// Span notes become event names verbatim; quotes, backslashes, newlines
	// and non-ASCII must survive the JSON round trip.
	hostile := "span \"q\" \\back\nnewline\tµ"
	var buf bytes.Buffer
	tr := NewTracer(CatAll, 0)
	tr.Attach(NewChromeSink(&buf))
	tr.setTime(10)
	tr.emit(Event{Kind: KSpanBegin, Core: 0, Note: hostile})
	tr.setTime(20)
	tr.emit(Event{Kind: KSpanEnd, Core: 0, Note: hostile})
	tr.setTime(30)
	tr.emit(Event{Kind: KTxAbort, Core: 0, VID: 1, Note: "cause with \"quotes\""})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Note string `json:"note"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("hostile names broke the JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	for _, i := range []int{0, 1} {
		if doc.TraceEvents[i].Name != hostile {
			t.Errorf("event %d name = %q, want %q", i, doc.TraceEvents[i].Name, hostile)
		}
	}
	if got := doc.TraceEvents[2].Args.Note; got != "cause with \"quotes\"" {
		t.Errorf("abort note = %q", got)
	}
}

func TestChromeSinkCategoryFiltering(t *testing.T) {
	// The tracer's mask gates what reaches the sink: with only CatTxn
	// enabled, bus and engine-span events must not appear in the trace.
	var buf bytes.Buffer
	tr := NewTracer(CatTxn, 0)
	tr.Attach(NewChromeSink(&buf))
	tr.setTime(10)
	tr.emit(Event{Kind: KTxBegin, Core: 0, VID: 1})
	tr.emit(Event{Kind: KBusRequest, Core: 0, Addr: 0x40, Note: "load"})
	tr.emit(Event{Kind: KSpanBegin, Core: 0, Note: "validate"})
	tr.setTime(20)
	tr.emit(Event{Kind: KTxCommit, Core: 0, VID: 1, Arg: 10})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2 (txn only): %s", len(doc.TraceEvents), buf.Bytes())
	}
	for _, e := range doc.TraceEvents {
		if e.Cat != "txn" {
			t.Errorf("event %q leaked category %q through a txn-only mask", e.Name, e.Cat)
		}
	}
}

func TestTxCollectorAbortRecommit(t *testing.T) {
	tr := NewTracer(CatAll, 0)
	col := NewTxCollector()
	tr.Attach(col)

	// Run 1: VID 1 commits, VIDs 2 and 3 are in flight when the run aborts.
	tr.setTime(100)
	tr.emit(Event{Kind: KTxBegin, Core: 0, VID: 1})
	tr.setTime(110)
	tr.emit(Event{Kind: KTxBegin, Core: 1, VID: 2})
	tr.setTime(120)
	tr.emit(Event{Kind: KTxBegin, Core: 2, VID: 3})
	tr.setTime(150)
	tr.emit(Event{Kind: KTxCommit, Core: 0, VID: 1, Arg: 50})
	tr.setTime(200)
	tr.emit(Event{Kind: KTxAbort, Core: 1, VID: 2, Note: "store vid 2 to line 0x40 already accessed by vid 3"})

	// Run 2: both re-execute and commit.
	tr.setTime(210)
	tr.emit(Event{Kind: KTxBegin, Core: 1, VID: 2})
	tr.setTime(220)
	tr.emit(Event{Kind: KTxBegin, Core: 2, VID: 3})
	tr.setTime(300)
	tr.emit(Event{Kind: KTxCommit, Core: 1, VID: 2, Arg: 90})
	tr.setTime(320)
	tr.emit(Event{Kind: KTxCommit, Core: 2, VID: 3, Arg: 100})

	aborted := col.Aborted()
	if len(aborted) != 2 {
		t.Fatalf("aborted attempts = %+v, want 2 records", aborted)
	}
	// First-begin order within the abort, stamped with the abort cycle.
	if aborted[0].VID != 2 || aborted[1].VID != 3 {
		t.Fatalf("aborted order = %d,%d, want 2,3", aborted[0].VID, aborted[1].VID)
	}
	for _, a := range aborted {
		if !a.Aborted || a.AbortCycle != 200 || a.Attempt != 1 {
			t.Fatalf("aborted record = %+v", a)
		}
		if a.CommitCycle != 0 {
			t.Fatalf("aborted record has a commit: %+v", a)
		}
	}

	committed := col.Committed()
	if len(committed) != 3 {
		t.Fatalf("committed = %+v, want 3", committed)
	}
	// VID 1 committed on its first attempt; 2 and 3 on their second.
	wantAttempt := map[uint64]int{1: 1, 2: 2, 3: 2}
	for _, c := range committed {
		if c.Aborted {
			t.Fatalf("committed record marked aborted: %+v", c)
		}
		if c.Attempt != wantAttempt[c.VID] {
			t.Errorf("vid %d committed on attempt %d, want %d", c.VID, c.Attempt, wantAttempt[c.VID])
		}
	}

	s := col.Summary()
	if s.Committed != 3 || s.Aborts != 1 || s.AbortedAttempts != 2 || s.RecommittedTxs != 2 {
		t.Fatalf("summary = %+v", s)
	}
	out := s.String()
	for _, want := range []string{"aborted tx attempts", "txs recommitted after abort"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary table missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrySnapshotTextAndJSON(t *testing.T) {
	r := NewRegistry()
	g := r.Group("memsys").Group("l1[0]")
	var hits uint64
	g.CounterFunc("hits", "L1 hits", func() uint64 { return hits })
	hits = 42 // read at snapshot time, not at registration
	var misses uint64 = 7
	g.CounterFunc("misses", "L1 misses", func() uint64 { return misses })
	r.Scalar("memsys.l1[0].hit_rate", "hit rate", func() float64 { return 42.0 / 49.0 })
	r.Scalar("bad", "division by zero", func() float64 { return 0.0 / zero() })
	h := r.Histogram("engine.lat", "latency", []uint64{4, 16, 64})
	for _, v := range []uint64{2, 4, 5, 100} {
		h.Observe(v)
	}

	snap := r.Snapshot()
	if len(snap.Entries) != 5 {
		t.Fatalf("got %d entries, want 5", len(snap.Entries))
	}
	for i := 1; i < len(snap.Entries); i++ {
		if snap.Entries[i-1].Name >= snap.Entries[i].Name {
			t.Fatalf("snapshot not sorted: %q >= %q", snap.Entries[i-1].Name, snap.Entries[i].Name)
		}
	}

	text := snap.Text()
	for _, want := range []string{"memsys.l1[0].hits", "42", "engine.lat[<=4]", "engine.lat[<=+Inf]"} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}

	buf, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("registry JSON differs across identical snapshots")
	}
	var tree map[string]any
	if err := json.Unmarshal(buf, &tree); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf)
	}
	memsys := tree["memsys"].(map[string]any)
	l1 := memsys["l1[0]"].(map[string]any)
	if l1["hits"] != float64(42) || l1["misses"] != float64(7) {
		t.Fatalf("nested counters wrong: %v", l1)
	}
	if tree["bad"] != float64(0) {
		t.Fatalf("non-finite scalar not sanitised: %v", tree["bad"])
	}
	lat := tree["engine"].(map[string]any)["lat"].(map[string]any)
	if lat["total"] != float64(4) || lat["sum"] != float64(111) {
		t.Fatalf("histogram snapshot wrong: %v", lat)
	}
}

// zero defeats constant folding so the NaN is produced at run time.
func zero() float64 { return 0 }

func one() uint64 { return 1 }

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.CounterFunc("x", "", one)
	r.CounterFunc("x", "", one)
}

func TestNestedConflict(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("a.b", "", one)
	r.CounterFunc("a.b.c", "", one)
	if _, err := r.Snapshot().Nested(); err == nil {
		t.Fatal("leaf/subtree conflict not reported")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []uint64{10, 20})
	h.Observe(10) // inclusive upper bound
	h.Observe(11)
	h.Observe(21)
	snap := r.Snapshot().Entries[0].Hist
	want := []uint64{1, 1, 1}
	for i, c := range snap.Counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", snap.Counts, want)
		}
	}
	if h.Mean() != 14 {
		t.Fatalf("mean = %v, want 14", h.Mean())
	}
}

func TestAbortClass(t *testing.T) {
	cases := map[string]string{
		"store vid 3 to line 0x40 already accessed by vid 5":      "conflict",
		"speculative line overflowed the last-level cache (§5.4)": "overflow",
		"SLA mismatch at 0x80 vid 2: loaded 0x1, now 0x2":         "sla-mismatch",
		"explicit abortMTX by core 1 (seq 7)":                     "explicit",
		"???":                                                     "other",
	}
	for cause, want := range cases {
		if got := AbortClass(cause); got != want {
			t.Errorf("AbortClass(%q) = %q, want %q", cause, got, want)
		}
	}
}

func TestTxCollector(t *testing.T) {
	tr := NewTracer(CatAll, 0)
	col := NewTxCollector()
	tr.Attach(col)

	tr.setTime(100)
	tr.emit(Event{Kind: KTxBegin, Core: 0, VID: 1})
	tr.setTime(110)
	tr.emit(Event{Kind: KTxBegin, Core: 1, VID: 2})
	tr.setTime(200)
	tr.emit(Event{Kind: KTxCommit, Core: 0, VID: 1, Arg: 100})
	tr.setTime(250)
	tr.emit(Event{Kind: KCommitResume, Core: 1, VID: 2, Arg: 40})
	tr.setTime(260)
	tr.emit(Event{Kind: KTxCommit, Core: 1, VID: 2, Arg: 150})
	tr.setTime(300)
	tr.emit(Event{Kind: KTxBegin, Core: 0, VID: 3})
	tr.setTime(320)
	tr.emit(Event{Kind: KTxAbort, Core: 0, VID: 3, Note: "store vid 3 to line 0x40 already accessed by vid 5"})

	s := col.Summary()
	if s.Committed != 2 || s.Aborts != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.AbortsByClass["conflict"] != 1 {
		t.Fatalf("abort attribution = %v", s.AbortsByClass)
	}
	if s.MaxLatency != 150 || s.MeanLatency != 125 {
		t.Fatalf("latencies = %+v", s)
	}
	if s.TotalStall != 40 {
		t.Fatalf("stall = %+v", s)
	}
	got := col.Committed()
	if len(got) != 2 || got[1].StallCycles != 40 || got[1].CommitCycle != 260 {
		t.Fatalf("timelines = %+v", got)
	}
	out := s.String()
	if !strings.Contains(out, "aborts: conflict") {
		t.Errorf("summary table missing abort breakdown:\n%s", out)
	}
}

// TestTracerFold: a KStep and each recorded engine event set the time a
// memory-system event is stamped with; an unrecorded engine event and every
// category-0 kind leave it alone; a recorded KStateChange gets its
// "from->to" note.
func TestTracerFold(t *testing.T) {
	tr := NewTracer(CatCache|CatTxn, 0)
	for _, e := range []Event{
		{Kind: KStep, Cycle: 10},
		{Kind: KStateChange, Core: -1, Addr: 0x40, Sub: 3, Aux: 7},  // at 10
		{Kind: KTxBegin, Cycle: 12, VID: 1},                         // recorded: time 12
		{Kind: KStateChange, Core: -1, Addr: 0x80},                  // at 12
		{Kind: KQueueProduce, Cycle: 30},                            // unrecorded
		{Kind: KCharge, Cycle: 40, Arg: 5},                          // category 0
		{Kind: KBusRequest, Core: 0, Addr: 0xc0, Note: "load"},      // unrecorded
		{Kind: KStateChange, Core: -1, Addr: 0x100, Sub: 5, Aux: 6}, // still at 12
	} {
		tr.Fold(e)
	}
	want := []Event{
		{Cycle: 10, Kind: KStateChange, Core: -1, Addr: 0x40, Sub: 3, Aux: 7, Note: "E->S-E"},
		{Cycle: 12, Kind: KTxBegin, VID: 1},
		{Cycle: 12, Kind: KStateChange, Core: -1, Addr: 0x80, Note: "I->I"},
		{Cycle: 12, Kind: KStateChange, Core: -1, Addr: 0x100, Sub: 5, Aux: 6, Note: "S-M->S-O"},
	}
	if got := tr.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("recorded\n%+v\nwant\n%+v", got, want)
	}
}
