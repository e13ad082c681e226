package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// golden compares got against testdata/<name>, rewriting the file under
// -update. Byte-for-byte comparison is the point: the sinks promise output
// identical across runs, so any diff — whitespace, field order, float
// formatting — is a contract change that must show up in review.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s does not match golden file; got:\n%s\nwant:\n%s", name, got, want)
	}
}

// abortRecommitTrace replays a fixed schedule through the tracer: VID 1
// commits, VIDs 2 and 3 are rolled back by a conflict abort (one with a
// validation span still open), then both recommit on attempt 2. It exercises
// every Chrome phase ("X", "B"/"E", "i") and the collector's aborted-attempt
// path.
func abortRecommitTrace(sinks ...Sink) {
	tr := NewTracer(CatAll, 0)
	for _, s := range sinks {
		tr.Attach(s)
	}
	tr.setTime(100)
	tr.emit(Event{Kind: KTxBegin, Core: 0, VID: 1})
	tr.emit(Event{Kind: KTxBegin, Core: 1, VID: 2})
	tr.setTime(120)
	tr.emit(Event{Kind: KTxBegin, Core: 2, VID: 3})
	tr.emit(Event{Kind: KSpanBegin, Core: 2, VID: 3, Note: "smtx.validate"})
	tr.setTime(150)
	tr.emit(Event{Kind: KTxCommit, Core: 0, VID: 1, Arg: 50})
	tr.setTime(200)
	tr.emit(Event{Kind: KTxAbort, Core: 1, VID: 2, Note: "store vid 2 to line 0x40 already accessed by vid 3"})
	tr.setTime(210)
	tr.emit(Event{Kind: KTxBegin, Core: 1, VID: 2})
	tr.emit(Event{Kind: KTxBegin, Core: 2, VID: 3})
	tr.setTime(280)
	tr.emit(Event{Kind: KCommitResume, Core: 2, VID: 3, Arg: 30})
	tr.setTime(300)
	tr.emit(Event{Kind: KTxCommit, Core: 1, VID: 2, Arg: 90})
	tr.setTime(320)
	tr.emit(Event{Kind: KTxCommit, Core: 2, VID: 3, Arg: 110})
	tr.Close()
}

func TestChromeSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	abortRecommitTrace(NewChromeSink(&buf))
	golden(t, "chrome_abort_recommit.json", buf.Bytes())
}

func TestTextSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	abortRecommitTrace(NewTextSink(&buf))
	golden(t, "text_abort_recommit.log", buf.Bytes())
}

func TestTxTimelineGolden(t *testing.T) {
	col := NewTxCollector()
	abortRecommitTrace(col)

	aborted := col.Aborted()
	if len(aborted) != 2 {
		t.Fatalf("aborted attempts = %+v, want 2", aborted)
	}
	if aborted[0].VID != 2 || aborted[1].VID != 3 || aborted[1].AbortCycle != 200 {
		t.Fatalf("aborted records = %+v", aborted)
	}
	if got := col.Committed()[2]; got.VID != 3 || got.Attempt != 2 || got.StallCycles != 30 {
		t.Fatalf("vid 3 recommit record = %+v", got)
	}
	golden(t, "txtimeline_summary.txt", []byte(col.Summary().String()))
}
