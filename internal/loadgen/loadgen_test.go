package loadgen

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"resilientdb/internal/stats"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

func testWorkload() workload.Config {
	wl := workload.Default()
	wl.Records = 1000
	wl.ValueSize = 16
	return wl
}

// replay is a fake transport: it answers its session's requests in turn,
// each as if sent lat[i] ago, then waits for the run to end.
type replay struct{ lat []time.Duration }

func (r replay) Carry(ctx context.Context, c *Carrier) {
	s := &c.Sessions[0]
	for _, d := range r.lat {
		c.Begin(s)
		s.Start = s.Start.Add(-d)
		c.Complete(s, Acked)
	}
	<-ctx.Done()
}

func repeat(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// bucketOf returns the histogram bucket bound d's percentile reports.
func bucketOf(d time.Duration) time.Duration {
	var h stats.Histogram
	h.Record(d)
	return h.Percentile(50)
}

// TestRunPercentilesMergeCarriers: a run's percentiles are those of all its
// requests, not the slowest carrier's. Three quarters of the requests take
// 1 ms, but half of carrier b's take 64 ms, so b's own median is 64 ms.
func TestRunPercentilesMergeCarriers(t *testing.T) {
	const n = 200
	g := New(Config{Workload: testWorkload(), Seed: 3})
	if _, err := g.Add(1, replay{repeat(time.Millisecond, 2*n)}); err != nil {
		t.Fatal(err)
	}
	b, err := g.Add(1, replay{append(repeat(time.Millisecond, n), repeat(64*time.Millisecond, n)...)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res := g.Run(ctx)

	if res.Txns != 4*n || res.WriteTxns != 4*n {
		t.Fatalf("run completed %d transactions (%d writes), want %d", res.Txns, res.WriteTxns, 4*n)
	}
	fast, slow := bucketOf(time.Millisecond), bucketOf(64*time.Millisecond)
	if bp50 := b.lat[kindWrite].Percentile(50); bp50 != slow {
		t.Fatalf("carrier b's own P50 = %v, want the 64 ms bucket %v", bp50, slow)
	}
	if res.P50Lat != fast || res.WriteP50Lat != fast {
		t.Fatalf("run P50 = %v (writes %v), want the 1 ms bucket %v", res.P50Lat, res.WriteP50Lat, fast)
	}
	if res.P99Lat != slow || res.WriteP99Lat != slow {
		t.Fatalf("run P99 = %v (writes %v), want the 64 ms bucket %v", res.P99Lat, res.WriteP99Lat, slow)
	}
	if mean := (3*time.Millisecond + 64*time.Millisecond) / 4; res.MeanLat < mean || res.MeanLat > mean+time.Millisecond {
		t.Fatalf("run mean = %v, want about %v", res.MeanLat, mean)
	}
}

// TestCompleteAllocatesOnlyTheDraw: booking an answer and drawing the
// session's next request allocates nothing — the draw fills the session's
// own arrays — for writes, a mixed stream and a burst of 8; and what it
// draws is the workload's stream, byte for byte: carrier 0 draws from
// Seed, so a workload salted Seed replays it. The session's op array is its
// request's ops in (transaction, op) order: a local read sends it as is.
func TestCompleteAllocatesOnlyTheDraw(t *testing.T) {
	mixed := testWorkload()
	mixed.Preset = "a"
	for _, tt := range []struct {
		name  string
		wl    workload.Config
		burst int
	}{{"writes", testWorkload(), 1}, {"mixed", mixed, 1}, {"burst", testWorkload(), 8}} {
		t.Run(tt.name, func(t *testing.T) {
			const seed = 5
			g := New(Config{Workload: tt.wl, Seed: seed, Burst: tt.burst})
			c, err := g.Add(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := &c.Sessions[0]
			complete := testing.AllocsPerRun(500, func() {
				c.Begin(s)
				c.Complete(s, Acked)
			})
			if complete != 0 {
				t.Fatalf("Complete and the next draw allocate %.2f per request, want 0", complete)
			}
			if got := c.txns[kindWrite].Load() + c.txns[kindRead].Load(); got != 501*uint64(tt.burst) {
				t.Fatalf("%d transactions counted, want %d", got, 501*tt.burst)
			}

			// Add drew one request and AllocsPerRun ran Complete 501 times
			// (once more than it counts): s.Req is the stream's 502nd.
			wl, err := workload.New(tt.wl, seed)
			if err != nil {
				t.Fatal(err)
			}
			seq := s.Req.FirstSeq - 501*uint64(tt.burst)
			for i := 0; i < 502; i++ {
				want := wl.NextRequest(s.ID, seq, tt.burst)
				seq += uint64(tt.burst)
				if i < 501 {
					continue
				}
				if got := types.MarshalBody(&s.Req); !bytes.Equal(got, types.MarshalBody(&want)) {
					t.Fatalf("the session's request differs from the workload's stream:\n%x\n%x", got, types.MarshalBody(&want))
				}
			}
			var ops []types.Op
			for _, txn := range s.Req.Txns {
				ops = append(ops, txn.Ops...)
			}
			if got, want := types.MarshalBody(&types.ReadRequest{Ops: s.ops}), types.MarshalBody(&types.ReadRequest{Ops: ops}); !bytes.Equal(got, want) {
				t.Fatalf("the session's op array is not its request's op list:\n%x\n%x", got, want)
			}
		})
	}
}

// TestStatsWhileRunning reads Stats and Latency on one goroutine while two
// carriers complete requests on theirs, as a benchmark's slice marks do.
// Run it under -race.
func TestStatsWhileRunning(t *testing.T) {
	g := New(Config{Workload: testWorkload(), Seed: 1})
	for i := 0; i < 2; i++ {
		if _, err := g.Add(1, replay{repeat(time.Millisecond, 2000)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for ctx.Err() == nil {
			s, h := g.Stats(), g.Latency()
			if s.Completed < last || h.Percentile(99) < h.Percentile(50) {
				t.Errorf("stats went back or percentiles crossed: %+v, %d latencies", s, h.Count())
				return
			}
			last = s.Completed
		}
	}()
	go func() {
		for g.Stats().Completed < 4000 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	res := g.Run(ctx)
	wg.Wait()
	if res.Txns != 4000 || g.Latency().Count() != 4000 {
		t.Fatalf("run: %s, %d latencies; want 4000 of each", res, g.Latency().Count())
	}
}

// TestSessionsContinueAcrossRuns: a session's sequence survives the end
// of a run, so a second run does not reissue sequences the replicas have
// already executed (they would answer them without executing anything).
func TestSessionsContinueAcrossRuns(t *testing.T) {
	g := New(Config{Workload: testWorkload(), Burst: 4})
	c, err := g.Add(1, replay{repeat(time.Millisecond, 3)})
	if err != nil {
		t.Fatal(err)
	}
	first := c.Sessions[0].Seq
	for run := 1; run <= 2; run++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		g.Run(ctx)
		s := &c.Sessions[0]
		if want := first + uint64(4*3*run); s.Seq != want || s.Req.FirstSeq != want {
			t.Fatalf("after run %d: seq %d, request at %d; want %d", run, s.Seq, s.Req.FirstSeq, want)
		}
		if s.Req.Client != types.ClientID(0) || len(s.Req.Txns) != 4 {
			t.Fatalf("after run %d: request %+v", run, s.Req)
		}
	}
}
