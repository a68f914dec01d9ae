package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// faultCfg is smallCfg plus a fault plan.
func faultCfg(procs int, plan *FaultPlan) Config {
	cfg := smallCfg(procs)
	cfg.Faults = plan
	cfg.StallTimeout = 20 * time.Second // tests must never hang
	return cfg
}

// retryCollective keeps re-entering a barrier until the live set is
// stable — the minimal survivor protocol the core runner implements for
// real (re-dividing work between retries).
func retryBarrier(t *testing.T, c *Comm) error {
	t.Helper()
	for i := 0; i < 10; i++ {
		err := c.Barrier()
		if err == nil {
			return nil
		}
		if _, ok := AsRankDead(err); ok {
			continue
		}
		return err
	}
	return errors.New("barrier retry budget exhausted")
}

func TestCrashAtClockDetected(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: CrashAtClock, Rank: 1, Clock: 0.5}}}
	rep, err := Run(faultCfg(4, plan), func(c *Comm) error {
		c.ChargeCompute(1.0) // rank 1 dies crossing 0.5
		return retryBarrier(t, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Faults
	if f == nil {
		t.Fatal("no FaultReport on faulted run")
	}
	if f.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", f.Crashes)
	}
	if len(f.Injected) != 1 || f.Injected[0].Kind != CrashAtClock || f.Injected[0].Rank != 1 {
		t.Errorf("Injected = %+v, want one crash@clock on rank 1", f.Injected)
	}
	if f.Injected[0].Clock < 0.5 {
		t.Errorf("crash fired at clock %g, trigger was 0.5", f.Injected[0].Clock)
	}
	// All 3 survivors must have observed the death, each charged a
	// positive detection latency.
	if len(f.Detections) != 3 {
		t.Fatalf("Detections = %d, want 3", len(f.Detections))
	}
	for _, d := range f.Detections {
		if d.DeadRank != 1 || d.ByRank == 1 || d.Latency <= 0 {
			t.Errorf("bad detection %+v", d)
		}
	}
	if f.RecoverySeconds <= 0 {
		t.Errorf("RecoverySeconds = %g, want > 0", f.RecoverySeconds)
	}
	if !rep.PerRank[1].Died {
		t.Error("rank 1 not marked Died")
	}
	if rep.PerRank[0].Died {
		t.Error("rank 0 wrongly marked Died")
	}
}

func TestCrashAtCollectiveBoundary(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: CrashAtCollective, Rank: 2, Nth: 2}}}
	var liveAfter []int
	rep, err := Run(faultCfg(4, plan), func(c *Comm) error {
		if err := c.Barrier(); err != nil { // collective #1: everyone alive
			return err
		}
		if err := retryBarrier(t, c); err != nil { // #2: rank 2 dies entering
			return err
		}
		if c.Rank() == 0 {
			liveAfter = c.LiveRanks()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Crashes != 1 || rep.Faults.Injected[0].Kind != CrashAtCollective {
		t.Errorf("want one crash@collective, got %+v", rep.Faults.Injected)
	}
	if want := []int{0, 1, 3}; !reflect.DeepEqual(liveAfter, want) {
		t.Errorf("LiveRanks = %v, want %v", liveAfter, want)
	}
}

func TestCrashWithTwoRanksLeavesLoneSurvivor(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: CrashAtClock, Rank: 0, Clock: 0}}}
	_, err := Run(faultCfg(2, plan), func(c *Comm) error {
		c.ChargeCompute(1e-3)
		if err := retryBarrier(t, c); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if got := c.DeadRanks(); !reflect.DeepEqual(got, []int{0}) {
				return fmt.Errorf("DeadRanks = %v", got)
			}
			// Collectives still work for the lone survivor.
			res, err := c.Allreduce([]float64{2}, Sum)
			if err != nil {
				return err
			}
			if res[0] != 2 {
				return fmt.Errorf("lone allreduce = %v", res)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSurvivesCrash(t *testing.T) {
	// Rank 3 dies mid-compute; the surviving ranks' retried Allreduce must
	// contain exactly the survivors' contributions.
	plan := &FaultPlan{Faults: []Fault{{Kind: CrashAtClock, Rank: 3, Clock: 0.1}}}
	_, err := Run(faultCfg(4, plan), func(c *Comm) error {
		c.ChargeCompute(0.2)
		contrib := []float64{float64(int(1) << c.Rank())}
		for {
			res, err := c.Allreduce(contrib, Sum)
			if err == nil {
				if want := float64(1 + 2 + 4); res[0] != want {
					return fmt.Errorf("rank %d: sum = %g, want %g", c.Rank(), res[0], want)
				}
				return nil
			}
			if _, ok := AsRankDead(err); !ok {
				return err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDropRetriesThenDelivers(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: DropMessages, Rank: 0, Peer: 1, Tag: AnyTag, Count: 2}}}
	rep, err := Run(faultCfg(2, plan), func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []float64{42})
		}
		data, from, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if from != 0 || len(data) != 1 || data[0] != 42 {
			return fmt.Errorf("got %v from %d", data, from)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Faults
	if f.Drops != 2 || f.Retries != 2 {
		t.Errorf("Drops/Retries = %d/%d, want 2/2", f.Drops, f.Retries)
	}
	// Retransmission backoff must be charged to the sender's clock:
	// latency·(1 + 2¹ + 2²) at minimum (intra-socket is the cheapest tier
	// ranks 0 and 1 can share).
	minClock := 7 * DefaultCostModel().IntraSocket.Latency.Seconds()
	if rep.PerRank[0].ClockSeconds < minClock {
		t.Errorf("sender clock %g < backoff floor %g", rep.PerRank[0].ClockSeconds, minClock)
	}
}

func TestDropExhaustsRetryBudget(t *testing.T) {
	plan := &FaultPlan{
		Faults:     []Fault{{Kind: DropMessages, Rank: 0, Peer: -1, Tag: AnyTag, Count: 100}},
		MaxRetries: 3,
	}
	rep, err := Run(faultCfg(2, plan), func(c *Comm) error {
		if c.Rank() == 0 {
			err := c.Send(1, 0, []float64{1})
			if !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("send over dead link: %v, want ErrTimeout", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Drops != 4 { // initial + 3 retries, each dropped
		t.Errorf("Drops = %d, want 4", rep.Faults.Drops)
	}
	if rep.Faults.Retries != 3 {
		t.Errorf("Retries = %d, want 3", rep.Faults.Retries)
	}
}

func TestDelayShiftsArrival(t *testing.T) {
	const lag = 1.5
	plan := &FaultPlan{Faults: []Fault{{
		Kind: DelayMessages, Rank: 0, Peer: 1, Tag: AnyTag, Count: 1,
		Delay: time.Duration(lag * float64(time.Second)),
	}}}
	rep, err := Run(faultCfg(2, plan), func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []float64{1})
		}
		_, _, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Delays != 1 {
		t.Errorf("Delays = %d, want 1", rep.Faults.Delays)
	}
	if got := rep.PerRank[1].ClockSeconds; got < lag {
		t.Errorf("receiver clock %g, want ≥ %g (delayed flight)", got, lag)
	}
	if got := rep.PerRank[0].ClockSeconds; got > lag {
		t.Errorf("sender clock %g should not include the flight delay", got)
	}
}

func TestRecvFromDeadRankFails(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: CrashAtClock, Rank: 0, Clock: 0}}}
	_, err := Run(faultCfg(2, plan), func(c *Comm) error {
		c.ChargeCompute(1e-6)
		if c.Rank() == 1 {
			_, _, err := c.Recv(0, 0)
			if !errors.Is(err, ErrRankDead) {
				return fmt.Errorf("recv from dead rank: %v, want ErrRankDead", err)
			}
			rd, ok := AsRankDead(err)
			if !ok || !reflect.DeepEqual(rd.Dead, []int{0}) {
				return fmt.Errorf("dead list = %+v", rd)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendToDeadRankFails(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: CrashAtClock, Rank: 1, Clock: 0}}}
	_, err := Run(faultCfg(3, plan), func(c *Comm) error {
		c.ChargeCompute(1e-6)
		if err := retryBarrier(t, c); err != nil { // consensus: rank 1 is dead
			return err
		}
		if c.Rank() == 0 {
			if err := c.Send(1, 0, []float64{1}); !errors.Is(err, ErrRankDead) {
				return fmt.Errorf("send to dead rank: %v, want ErrRankDead", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvStallTimeout(t *testing.T) {
	cfg := smallCfg(2)
	cfg.StallTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			_, _, err := c.Recv(1, 0) // never sent
			if !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("stalled recv: %v, want ErrTimeout", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Errorf("stall backstop took %v", e)
	}
}

func TestCollectiveStallTimeout(t *testing.T) {
	cfg := smallCfg(2)
	cfg.StallTimeout = 50 * time.Millisecond
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil // never joins the barrier
		}
		if err := c.Barrier(); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("stalled barrier: %v, want ErrTimeout", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAndReduceDeadRoot(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: CrashAtClock, Rank: 0, Clock: 0}}}
	_, err := Run(faultCfg(3, plan), func(c *Comm) error {
		c.ChargeCompute(1e-6)
		if err := retryBarrier(t, c); err != nil {
			return err
		}
		if _, err := c.Bcast(0, []float64{1}); !errors.Is(err, ErrRankDead) {
			return fmt.Errorf("bcast from dead root: %v", err)
		}
		if _, err := c.Reduce(0, []float64{1}, Sum); !errors.Is(err, ErrRankDead) {
			return fmt.Errorf("reduce to dead root: %v", err)
		}
		// A live root still works.
		res, err := c.Bcast(1, []float64{float64(c.Rank())})
		if err != nil {
			return err
		}
		if res[0] != 1 {
			return fmt.Errorf("bcast got %v", res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedSentinels(t *testing.T) {
	_, err := Run(smallCfg(2), func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 0, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("send to rank 5: %v, want ErrInvalidRank", err)
		}
		if err := c.Send(-1, 0, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("send to rank -1: %v, want ErrInvalidRank", err)
		}
		if err := c.Send(0, 0, nil); !errors.Is(err, ErrSelfSend) {
			return fmt.Errorf("self send: %v, want ErrSelfSend", err)
		}
		if _, err := c.Reduce(9, nil, Sum); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("reduce root 9: %v, want ErrInvalidRank", err)
		}
		if _, err := c.Bcast(-2, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("bcast root -2: %v, want ErrInvalidRank", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
	}{
		{"bad rank", FaultPlan{Faults: []Fault{{Kind: CrashAtClock, Rank: 9}}}},
		{"negative clock", FaultPlan{Faults: []Fault{{Kind: CrashAtClock, Rank: 0, Clock: -1}}}},
		{"zero collective index", FaultPlan{Faults: []Fault{{Kind: CrashAtCollective, Rank: 0}}}},
		{"bad peer", FaultPlan{Faults: []Fault{{Kind: DropMessages, Rank: 0, Peer: 42}}}},
		{"unknown kind", FaultPlan{Faults: []Fault{{Kind: FaultKind(99), Rank: 0}}}},
	}
	for _, tc := range cases {
		cfg := smallCfg(4)
		cfg.Faults = &tc.plan
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.plan)
		}
	}
	if err := (*FaultPlan)(nil).Validate(4); err != nil {
		t.Errorf("nil plan: %v", err)
	}
}

func TestRandomFaultPlanDeterministic(t *testing.T) {
	a := RandomFaultPlan(42, 4, 8, 1.0)
	b := RandomFaultPlan(42, 4, 8, 1.0)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different plans")
	}
	c := RandomFaultPlan(43, 4, 8, 1.0)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans")
	}
	for i, f := range a.Faults {
		if f.Rank < 0 || f.Rank >= 4 {
			t.Errorf("fault %d: rank %d out of range", i, f.Rank)
		}
	}
	cfg := smallCfg(4)
	cfg.Faults = a
	if err := cfg.Validate(); err != nil {
		t.Errorf("random plan invalid: %v", err)
	}
}

// TestCollectiveEdgeCases covers the degenerate shapes the fault-recovery
// paths produce: zero-length buffers, a single-rank communicator, and
// Allgatherv segments of length zero.
func TestCollectiveEdgeCases(t *testing.T) {
	t.Run("zero-length buffers", func(t *testing.T) {
		_, err := Run(smallCfg(4), func(c *Comm) error {
			if res, err := c.Allreduce(nil, Sum); err != nil || len(res) != 0 {
				return fmt.Errorf("empty allreduce: %v %v", res, err)
			}
			if res, err := c.Bcast(0, []float64{}); err != nil || len(res) != 0 {
				return fmt.Errorf("empty bcast: %v %v", res, err)
			}
			if _, err := c.Reduce(1, nil, Max); err != nil {
				return fmt.Errorf("empty reduce: %v", err)
			}
			if res, err := c.Allgatherv(nil, []int{0, 0, 0, 0}); err != nil || len(res) != 0 {
				return fmt.Errorf("all-empty allgatherv: %v %v", res, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("single-rank communicator", func(t *testing.T) {
		_, err := Run(smallCfg(1), func(c *Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			res, err := c.Allreduce([]float64{3, 4}, Sum)
			if err != nil || res[0] != 3 || res[1] != 4 {
				return fmt.Errorf("single-rank allreduce: %v %v", res, err)
			}
			if res, err = c.Bcast(0, []float64{5}); err != nil || res[0] != 5 {
				return fmt.Errorf("single-rank bcast: %v %v", res, err)
			}
			if res, err = c.Reduce(0, []float64{6}, Min); err != nil || res[0] != 6 {
				return fmt.Errorf("single-rank reduce: %v %v", res, err)
			}
			if res, err = c.Allgatherv([]float64{7, 8}, []int{2}); err != nil ||
				!reflect.DeepEqual(res, []float64{7, 8}) {
				return fmt.Errorf("single-rank allgatherv: %v %v", res, err)
			}
			if err := c.Send(0, 0, nil); !errors.Is(err, ErrSelfSend) {
				return fmt.Errorf("single-rank self send: %v", err)
			}
			if _, _, ok, err := c.TryRecv(AnySource, AnyTag); err != nil || ok {
				return fmt.Errorf("single-rank tryrecv: ok=%v err=%v", ok, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("allgatherv empty segments", func(t *testing.T) {
		counts := []int{3, 0, 2, 0}
		_, err := Run(smallCfg(4), func(c *Comm) error {
			contrib := make([]float64, counts[c.Rank()])
			for i := range contrib {
				contrib[i] = float64(10*c.Rank() + i)
			}
			res, err := c.Allgatherv(contrib, counts)
			if err != nil {
				return err
			}
			want := []float64{0, 1, 2, 20, 21}
			if !reflect.DeepEqual(res, want) {
				return fmt.Errorf("gathered %v, want %v", res, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestFaultFreeRunHasNoFaultReport pins the zero-cost property: without a
// plan, Report.Faults is nil and nothing is charged.
func TestFaultFreeRunHasNoFaultReport(t *testing.T) {
	rep, err := Run(smallCfg(2), func(c *Comm) error { return c.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != nil {
		t.Errorf("fault-free run reported faults: %+v", rep.Faults)
	}
}

// A retry after a death may be a different collective than the failed
// attempt (core's step 5 gathers until a death, then reduces). The retry
// can reach the rendezvous while a survivor still blocked in the failed
// round has not yet woken to withdraw its now-stale deposit; the round
// must start over, not abort the run as a kind mismatch. One scheduler
// thread makes that interleaving the common one.
func TestRetryWithDifferentCollectiveAfterDeath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	plan := &FaultPlan{Faults: []Fault{{Kind: CrashAtCollective, Rank: 2, Nth: 1}}}
	for i := 0; i < 300; i++ {
		_, err := Run(faultCfg(3, plan), func(c *Comm) error {
			res, err := c.Allgatherv([]float64{float64(c.Rank())}, []int{1, 1, 1})
			for errors.Is(err, ErrRankDead) {
				vec := make([]float64, 3)
				vec[c.Rank()] = float64(c.Rank()) + 10
				res, err = c.Allreduce(vec, Sum)
			}
			if err != nil {
				return err
			}
			if len(res) != 3 || res[0] != 10 || res[1] != 11 || res[2] != 0 {
				return fmt.Errorf("survivors reduced %v", res)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
