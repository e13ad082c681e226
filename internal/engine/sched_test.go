package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"hmtx/internal/memsys"
	"hmtx/internal/vid"
)

// schedCase is one schedule-order golden: a machine configuration and the
// programs of each Run, executed back to back on one System. note lets a
// program log its clock after a blocking operation, so the digest also sees
// the order and the clocks at which parked cores were woken.
type schedCase struct {
	name  string
	cores int
	bits  uint // VID width; 0 keeps the default
	qcap  int  // queue capacity; 0 keeps the default
	runs  func(note func(e *Env, what string)) [][]Program
	want  string
}

// schedDigest runs c and hashes the debug-hook event stream, the program
// notes interleaved with it, and each Run's RunResult and engine Stats.
func schedDigest(t *testing.T, c schedCase) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mem.Cores = c.cores
	if c.bits != 0 {
		cfg.Mem.VIDSpace = vid.Space{Bits: c.bits}
	}
	if c.qcap != 0 {
		cfg.QueueCap = c.qcap
	}
	s := New(cfg)
	h := sha256.New()
	s.SetDebugHook(func(ev DebugEvent) { fmt.Fprintf(h, "ev %+v\n", ev) })
	note := func(e *Env, what string) { fmt.Fprintf(h, "note core%d t=%d %s\n", e.CoreID(), e.Now(), what) }
	for _, progs := range c.runs(note) {
		res := s.Run(progs)
		fmt.Fprintf(h, "run %+v\nstats %+v\n", res, *s.Stats())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// privLine is a line private to core i, away from every other test address.
func privLine(i int) memsys.Addr { return memsys.Addr(0x40000 + i*0x1000) }

var schedCases = []schedCase{
	{
		// A producer outrunning a two-slot queue parks on produce; two
		// consumers park on the empty queue; core 1 forwards to core 3
		// through a second queue, and both closes wake drained consumers.
		name: "queues", cores: 4, qcap: 2,
		want: "bc953d0469208a91681ad23c53d8554d9ed1f9cbe47ccc4e2ed8739beabe31bc",
		runs: func(note func(*Env, string)) [][]Program {
			consumer := func(fwd bool) Program {
				return func(e *Env) {
					for {
						v, ok := e.Consume(0)
						note(e, fmt.Sprintf("consume q0 %d %v", v, ok))
						if !ok {
							break
						}
						e.Compute(int64(30 + v%5))
						e.Load(privLine(e.CoreID()))
						if fwd {
							e.Produce(1, v*10)
							note(e, "produce q1")
						}
					}
					if fwd {
						e.CloseQueue(1)
					}
				}
			}
			return [][]Program{{
				func(e *Env) {
					for i := uint64(1); i <= 12; i++ {
						e.Compute(3)
						e.Produce(0, i)
						note(e, fmt.Sprintf("produce q0 %d", i))
					}
					e.CloseQueue(0)
				},
				consumer(true),
				consumer(false),
				func(e *Env) {
					for {
						v, ok := e.Consume(1)
						note(e, fmt.Sprintf("consume q1 %d %v", v, ok))
						if !ok {
							return
						}
						e.Compute(70)
					}
				},
			}}
		},
	},
	{
		// Two consumers sit parked on a drained queue when it is closed;
		// the closing core keeps computing, so only the close itself can
		// wake them.
		name: "close", cores: 3,
		want: "01deca1c69145e1809f079a9d99d87185e0a57ec771e5681c5a7e7f3ece56066",
		runs: func(note func(*Env, string)) [][]Program {
			consumer := func(e *Env) {
				for {
					v, ok := e.Consume(0)
					note(e, fmt.Sprintf("consume q0 %d %v", v, ok))
					if !ok {
						return
					}
					e.Compute(int64(10 + v))
				}
			}
			return [][]Program{{
				func(e *Env) {
					for i := uint64(1); i <= 3; i++ {
						e.Produce(0, i)
					}
					e.Compute(500)
					e.CloseQueue(0)
					for i := 0; i < 20; i++ {
						e.Compute(25)
					}
				},
				consumer,
				consumer,
			}}
		},
	},
	{
		// Round-robin transactions with skewed work: commits park out of
		// order, and core 3 also parks on AwaitCommitted.
		name: "commit-await", cores: 4,
		want: "605e9751db3f1b2fa0eee8d4136c37bc0329e8ff1d70b47ecf0245071f541e99",
		runs: func(note func(*Env, string)) [][]Program {
			progs := make([]Program, 4)
			for i := range progs {
				i := i
				progs[i] = func(e *Env) {
					for r := 0; r < 6; r++ {
						seq := vid.Seq(r*4 + i + 1)
						if i == 3 && r > 0 {
							e.AwaitCommitted(seq - 2)
							note(e, fmt.Sprintf("await %d", seq-2))
						}
						e.Begin(seq)
						e.Store(privLine(i), uint64(seq))
						e.Compute(int64(200 - 40*i + 13*r))
						e.Branch(uint64(i), r%3 == 0)
						e.Commit(seq)
						note(e, fmt.Sprintf("commit %d", seq))
					}
				}
			}
			return [][]Program{progs}
		},
	},
	{
		// A two-bit VID space holds three transactions per epoch, so most
		// begins park until the previous epoch has committed (§4.6).
		name: "epoch", cores: 3, bits: 2,
		want: "fd372f793c03212b85f4a49f3c256b67d9c5ffac7e3d11c4505d662abb7ca95c",
		runs: func(note func(*Env, string)) [][]Program {
			progs := make([]Program, 3)
			for i := range progs {
				i := i
				progs[i] = func(e *Env) {
					for r := 0; r < 5; r++ {
						seq := vid.Seq(r*3 + i + 1)
						e.Begin(seq)
						note(e, fmt.Sprintf("begin %d", seq))
						e.Store(privLine(i), uint64(seq))
						e.Compute(int64(50 + 17*i))
						e.Commit(seq)
						note(e, fmt.Sprintf("commit %d", seq))
					}
				}
			}
			return [][]Program{progs}
		},
	},
	{
		// Core 0 aborts explicitly while the others sit parked on an
		// epoch begin, a consume, an await and a commit; the recovery
		// run then commits on a clean machine.
		name: "explicit-abort", cores: 5, bits: 2,
		want: "de14fbb3f29cf120f4127f18e271c27cd1041b3e422b824c534b908f24c8bef7",
		runs: func(note func(*Env, string)) [][]Program {
			parked := []Program{
				func(e *Env) {
					e.Begin(1)
					e.Store(privLine(0), 1)
					e.Compute(10000)
					e.Abort(1)
				},
				func(e *Env) {
					e.Begin(4) // epoch 1: waits for seq 3
					note(e, "begin 4")
				},
				func(e *Env) {
					_, ok := e.Consume(5)
					note(e, fmt.Sprintf("consume %v", ok))
				},
				func(e *Env) {
					e.AwaitCommitted(2)
					note(e, "await 2")
				},
				func(e *Env) {
					e.Begin(2)
					e.Store(privLine(4), 2)
					e.Commit(2)
					note(e, "commit 2")
				},
			}
			recovery := make([]Program, 3)
			for i := range recovery {
				i := i
				recovery[i] = func(e *Env) {
					seq := vid.Seq(i + 1)
					e.Begin(seq)
					e.Store(privLine(i), uint64(seq))
					e.Commit(seq)
					note(e, fmt.Sprintf("commit %d", seq))
				}
			}
			return [][]Program{parked, recovery}
		},
	},
	{
		// The §4.3 flow-dependence violation aborts the run while two
		// more cores are parked on a consume and an await.
		name: "conflict-abort", cores: 4,
		want: "bc5923a284a6e02a6dd8078962657c63386268a027cd05a1d636d5fd3be8a4b6",
		runs: func(note func(*Env, string)) [][]Program {
			progs := conflictingPair()
			progs = append(progs,
				func(e *Env) {
					_, ok := e.Consume(3)
					note(e, fmt.Sprintf("consume %v", ok))
				},
				func(e *Env) {
					e.AwaitCommitted(2)
					note(e, "await 2")
				},
			)
			return [][]Program{progs}
		},
	},
	{
		// Identical programs keep the clocks tied at every step; the lowest
		// core ID goes first, which decides who wins the shared bus.
		name: "ties", cores: 4,
		want: "4ac1462c9462dae06d1afb1da01813dedb99577e9fc4d4c2e34ce29d898af4b9",
		runs: func(note func(*Env, string)) [][]Program {
			progs := make([]Program, 4)
			for i := range progs {
				i := i
				progs[i] = func(e *Env) {
					for r := 0; r < 4; r++ {
						e.Compute(7)
						e.Load(privLine(i) + memsys.Addr(r*memsys.LineSize))
						e.Load(0x9000 + memsys.Addr(r*memsys.LineSize))
						note(e, fmt.Sprintf("round %d", r))
					}
					seq := vid.Seq(i + 1)
					e.Begin(seq)
					e.Store(privLine(i), uint64(seq))
					e.Commit(seq)
					note(e, fmt.Sprintf("commit %d", seq))
				}
			}
			return [][]Program{progs}
		},
	},
	{
		// Sixteen cores, most of them parked on in-order commit at any
		// time, with wrong-path loads from mispredicted branches.
		name: "many", cores: 16,
		want: "49b95e13baf11618f9ee7b3c7137798b41d644bb92f8c1df5365c1b079208831",
		runs: func(note func(*Env, string)) [][]Program {
			progs := make([]Program, 16)
			for i := range progs {
				i := i
				progs[i] = func(e *Env) {
					for r := 0; r < 3; r++ {
						seq := vid.Seq(r*16 + i + 1)
						e.Begin(seq)
						e.Store(privLine(i), uint64(r))
						for k := 0; k < 5; k++ {
							e.Load(privLine(i))
							e.Compute(int64(2 + (i+k)%7))
							e.Branch(uint64(i), k%3 != 0)
						}
						e.Commit(seq)
						note(e, fmt.Sprintf("commit %d", seq))
					}
				}
			}
			return [][]Program{progs}
		},
	},
	{
		// Sixty-four cores with close clocks read four shared lines
		// between runs of zero to five Compute and Branch operations,
		// whose mispredictions issue wrong-path loads. In the first run
		// every transaction also writes one of four shared lines, until
		// an out-of-order write conflicts and aborts the run while most
		// cores hold such runs; the second run commits all 128
		// transactions, which cross a VID epoch, so begins park as well
		// as commits.
		name: "many64", cores: 64,
		want: "234cd734aece5e3486ac3c4b91a8f4d74a915437c257fbfbe6bb70edbb53e83d",
		runs: func(note func(*Env, string)) [][]Program {
			const sharedR, sharedW = memsys.Addr(0x9000), memsys.Addr(0xa000)
			progs := func(sharedWrites bool) []Program {
				ps := make([]Program, 64)
				for i := range ps {
					i := i
					ps[i] = func(e *Env) {
						for r := 0; r < 2; r++ {
							seq := vid.Seq(r*64 + i + 1)
							e.Begin(seq)
							for k := 0; k < 6; k++ {
								x := uint64(i*31 + r*17 + k*7)
								e.Load(sharedR + memsys.Addr(x%4*memsys.LineSize))
								for j := uint64(0); j < x%6; j++ {
									if (x+j)%2 == 0 {
										e.Compute(int64(1 + (x+j)%5))
									} else {
										e.Branch(uint64(i%8), (x*j)%3 != 0)
									}
								}
								e.Load(privLine(i) + memsys.Addr(k%2*memsys.LineSize))
							}
							if sharedWrites {
								e.Store(sharedW+memsys.Addr(i%4*memsys.LineSize), uint64(seq))
							}
							e.Store(privLine(i), uint64(seq))
							e.Commit(seq)
							note(e, fmt.Sprintf("commit %d", seq))
						}
					}
				}
				return ps
			}
			return [][]Program{progs(true), progs(false)}
		},
	},
}

// TestScheduleOrderGolden pins the scheduler's pick and wake order: the
// earliest-clock runnable core runs first (lowest core ID on ties), and
// parked cores wake in core-ID order after the event that satisfied them.
// Any change to either order changes a digest.
func TestScheduleOrderGolden(t *testing.T) {
	for _, c := range schedCases {
		t.Run(c.name, func(t *testing.T) {
			if got := schedDigest(t, c); got != c.want {
				t.Errorf("schedule digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestDeadlockPanics: when every live core is parked and nothing can wake
// them, Run panics with the deadlock report and leaks no coroutine.
func TestDeadlockPanics(t *testing.T) {
	s := newSys()
	progs := make([]Program, 3)
	for i := range progs {
		i := i
		progs[i] = func(e *Env) {
			e.Compute(int64(10 * (i + 1)))
			e.Consume(i) // never produced, never closed
		}
	}
	before := programCoroutines()
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(progs)
		return nil
	}()
	msg, _ := got.(string)
	if !strings.HasPrefix(msg, "engine: deadlock: all cores parked:") {
		t.Fatalf("recovered %v, want the deadlock report", got)
	}
	for i := range progs {
		if want := fmt.Sprintf("core%d(done=false park=%d seq=0)", i, parkConsume); !strings.Contains(msg, want) {
			t.Errorf("deadlock report %q lacks %q", msg, want)
		}
	}
	requireNoLeak(t, before)
}

// codeOrderRuns are the Runs of TestProgramCodeOrderGolden, executed back to
// back on one six-core System. at logs that the calling program's own code
// is running; every program calls it before each Env call.
func codeOrderRuns(at func(e *Env)) [][]Program {
	shared := memsys.Addr(0x9000)
	// A producer feeds two transactional consumers through a two-slot
	// queue; each item v becomes transaction v, so the consumers' commits
	// park until their turn. Core 3 parks on AwaitCommitted twice and
	// core 4 computes alone, far behind the others' clocks.
	consumer := func(e *Env) {
		for {
			at(e)
			v, ok := e.Consume(0)
			if !ok {
				return
			}
			seq := vid.Seq(v)
			at(e)
			e.Begin(seq)
			at(e)
			e.Load(shared)
			at(e)
			e.Store(privLine(e.CoreID())+memsys.Addr(v*memsys.LineSize), v)
			at(e)
			e.Compute(int64(20 + v%7))
			at(e)
			e.Branch(uint64(e.CoreID()), v%3 == 0)
			at(e)
			e.SpecAccessCount()
			at(e)
			e.Commit(seq)
		}
	}
	pipeline := []Program{
		func(e *Env) {
			for i := uint64(1); i <= 10; i++ {
				at(e)
				e.Compute(int64(3 + i%4))
				at(e)
				e.Load(privLine(0) + memsys.Addr(i*memsys.LineSize))
				at(e)
				e.Branch(0, i%3 == 0)
				at(e)
				e.Produce(0, i)
			}
			at(e)
			e.CloseQueue(0)
		},
		consumer,
		consumer,
		func(e *Env) {
			at(e)
			e.AwaitCommitted(5)
			for i := 0; i < 6; i++ {
				at(e)
				e.Load(shared + memsys.Addr(i*memsys.LineSize))
				at(e)
				e.Compute(int64(5 + i))
			}
			at(e)
			e.AwaitCommitted(10)
			at(e)
			e.Load(shared)
		},
		func(e *Env) {
			for i := 0; i < 40; i++ {
				at(e)
				e.Compute(int64(1 + i%3))
				at(e)
				e.Load(privLine(4))
			}
		},
	}
	// Core 0 aborts explicitly while cores 1 and 2 sit parked on commit
	// and core 3 on an empty queue.
	committer := func(seq vid.Seq) Program {
		return func(e *Env) {
			at(e)
			e.Begin(seq)
			for i := 0; i < 4; i++ {
				at(e)
				e.Load(privLine(e.CoreID()))
				at(e)
				e.Compute(int64(9 * (i + 1)))
			}
			at(e)
			e.Commit(seq)
		}
	}
	explicit := []Program{
		func(e *Env) {
			at(e)
			e.Begin(11)
			for i := 0; i < 8; i++ {
				at(e)
				e.Store(privLine(0), uint64(i))
				at(e)
				e.Compute(40)
			}
			at(e)
			e.Abort(11)
		},
		committer(12),
		committer(13),
		func(e *Env) {
			at(e)
			e.Consume(2)
		},
	}
	// Core 1's store to a line that core 0's later transaction has read
	// is a flow-dependence violation (§4.3); core 2 is parked on an await.
	conflict := []Program{
		func(e *Env) {
			at(e)
			e.Begin(12)
			at(e)
			e.Load(shared)
			for i := 0; i < 10; i++ {
				at(e)
				e.Compute(1000)
			}
			at(e)
			e.Commit(12)
		},
		func(e *Env) {
			for i := 0; i < 20; i++ {
				at(e)
				e.Compute(25)
			}
			at(e)
			e.Begin(11)
			at(e)
			e.Store(shared, 7)
			at(e)
			e.Commit(11)
		},
		func(e *Env) {
			at(e)
			e.AwaitCommitted(12)
			at(e)
			e.Load(shared)
		},
	}
	return [][]Program{pipeline, explicit, conflict, {committer(11), committer(12)}}
}

// TestProgramCodeOrderGolden pins the host order in which the programs' own
// code runs between their Env calls, which program code that shares Go state
// with other programs (the hmtx driver's exit flags, the SMTX runtime) can
// observe. The log is (core, op index) before every Env call, plus each
// RunResult. Run-ahead dispatch left the order as it was; op fusion moves it
// by design, since a program runs on past its buffered Computes and Branches
// (DESIGN.md §11.6), and the digest was recorded with op fusion in place.
func TestProgramCodeOrderGolden(t *testing.T) {
	const want = "d0bfba4bde50c2db560ebd5e45bb802c7a82f0c3c7383f6500e2891d4af9737a"
	cfg := DefaultConfig()
	cfg.Mem.Cores = 6
	cfg.QueueCap = 2
	s := New(cfg)
	h := sha256.New()
	var ops [6]int
	at := func(e *Env) {
		fmt.Fprintf(h, "%d:%d\n", e.CoreID(), ops[e.CoreID()])
		ops[e.CoreID()]++
	}
	aborts := 0
	for _, progs := range codeOrderRuns(at) {
		ops = [6]int{}
		res := s.Run(progs)
		if res.Aborted {
			aborts++
		}
		fmt.Fprintf(h, "run %+v\n", res)
	}
	if aborts != 2 {
		t.Fatalf("%d of the runs aborted, want the explicit and the conflict run", aborts)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("program code order digest %s, want %s", got, want)
	}
}
