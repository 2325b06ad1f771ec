package queue

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func queues(capacity int) map[string]Queue[int] {
	return map[string]Queue[int]{
		"mpmc":  NewMPMC[int](capacity),
		"mutex": NewMutexQueue[int](capacity),
		"chan":  NewChanQueue[int](capacity),
	}
}

func TestQueueFIFOSingleThreaded(t *testing.T) {
	for name, q := range queues(8) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				if !q.TryPush(i) {
					t.Fatalf("TryPush(%d) failed on empty-ish queue", i)
				}
			}
			if q.Len() != 5 {
				t.Fatalf("Len = %d, want 5", q.Len())
			}
			for i := 0; i < 5; i++ {
				v, ok := q.TryPop()
				if !ok || v != i {
					t.Fatalf("TryPop = (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if _, ok := q.TryPop(); ok {
				t.Fatal("TryPop succeeded on empty queue")
			}
		})
	}
}

func TestQueueFullBehaviour(t *testing.T) {
	for name, q := range queues(2) {
		t.Run(name, func(t *testing.T) {
			if !q.TryPush(1) || !q.TryPush(2) {
				t.Fatal("fill failed")
			}
			if q.TryPush(3) {
				t.Fatal("TryPush succeeded on full queue")
			}
			v, ok := q.Pop()
			if !ok || v != 1 {
				t.Fatalf("Pop = (%d,%v)", v, ok)
			}
			if !q.TryPush(3) {
				t.Fatal("TryPush failed after Pop freed space")
			}
		})
	}
}

func TestQueueCloseDrains(t *testing.T) {
	for name, q := range queues(8) {
		t.Run(name, func(t *testing.T) {
			q.TryPush(1)
			q.TryPush(2)
			q.Close()
			if v, ok := q.Pop(); !ok || v != 1 {
				t.Fatalf("Pop after close = (%d,%v), want (1,true)", v, ok)
			}
			if v, ok := q.Pop(); !ok || v != 2 {
				t.Fatalf("Pop after close = (%d,%v), want (2,true)", v, ok)
			}
			if _, ok := q.Pop(); ok {
				t.Fatal("Pop returned item after drain+close")
			}
			if q.TryPush(9) {
				t.Fatal("TryPush succeeded after Close")
			}
		})
	}
}

func TestQueueCloseUnblocksPop(t *testing.T) {
	for name, q := range queues(4) {
		t.Run(name, func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				if _, ok := q.Pop(); ok {
					t.Error("Pop returned ok on closed empty queue")
				}
			}()
			q.Close()
			<-done
		})
	}
}

// TestQueueConcurrentMultiset checks that under heavy concurrency every
// pushed value is popped exactly once (no loss, no duplication).
func TestQueueConcurrentMultiset(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 2000
	for name, q := range queues(64) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			results := make(chan int, producers*perProducer)
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						v, ok := q.Pop()
						if !ok {
							return
						}
						results <- v
					}
				}()
			}
			var pwg sync.WaitGroup
			for p := 0; p < producers; p++ {
				pwg.Add(1)
				go func(p int) {
					defer pwg.Done()
					for i := 0; i < perProducer; i++ {
						if !q.Push(p*perProducer + i) {
							t.Errorf("Push failed mid-run")
							return
						}
					}
				}(p)
			}
			pwg.Wait()
			q.Close()
			wg.Wait()
			close(results)

			got := make([]int, 0, producers*perProducer)
			for v := range results {
				got = append(got, v)
			}
			if len(got) != producers*perProducer {
				t.Fatalf("popped %d values, want %d", len(got), producers*perProducer)
			}
			sort.Ints(got)
			for i, v := range got {
				if v != i {
					t.Fatalf("multiset mismatch at %d: %d", i, v)
				}
			}
		})
	}
}

// TestMPMCPerProducerOrder verifies FIFO per producer under concurrency.
func TestMPMCPerProducerOrder(t *testing.T) {
	q := NewMPMC[[2]int](32)
	const producers, perProducer = 3, 3000
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push([2]int{p, i})
			}
		}(p)
	}
	go func() { pwg.Wait(); q.Close() }()

	last := map[int]int{0: -1, 1: -1, 2: -1}
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if v[1] <= last[v[0]] {
			t.Fatalf("producer %d out of order: %d after %d", v[0], v[1], last[v[0]])
		}
		last[v[0]] = v[1]
	}
	for p, l := range last {
		if l != perProducer-1 {
			t.Fatalf("producer %d delivered up to %d", p, l)
		}
	}
}

func TestPopWokenByPush(t *testing.T) {
	q := NewMPMC[int](8)
	done := make(chan int, 1)
	go func() {
		v, ok := q.Pop()
		if !ok {
			done <- -1
			return
		}
		done <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer park
	q.Push(7)
	select {
	case v := <-done:
		if v != 7 {
			t.Fatalf("parked consumer got %d, want 7", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("push never woke the parked consumer")
	}
}

func TestCloseWakesAllParkedConsumers(t *testing.T) {
	q := NewMPMC[int](8)
	const waiters = 6
	var wg sync.WaitGroup
	var woke atomic.Int32
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := q.Pop(); !ok {
				woke.Add(1)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let everyone park
	q.Close()
	doneC := make(chan struct{})
	go func() { wg.Wait(); close(doneC) }()
	select {
	case <-doneC:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left consumers parked (wake cascade broken)")
	}
	if got := woke.Load(); got != waiters {
		t.Fatalf("%d of %d consumers observed the close", got, waiters)
	}
}

// TestPopConcurrentHandoff hammers parked consumers with bursty producers:
// every pushed item must come out exactly once even though the single wake
// token is shared by all waiters.
func TestPopConcurrentHandoff(t *testing.T) {
	q := NewMPMC[uint32](64)
	const producers, consumers, perProducer = 4, 4, 2000
	var got sync.Map
	var received atomic.Int64
	var prod, cons sync.WaitGroup

	for c := 0; c < consumers; c++ {
		cons.Add(1)
		go func() {
			defer cons.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return // closed and drained
				}
				if _, dup := got.LoadOrStore(v, true); dup {
					t.Errorf("value %d delivered twice", v)
					return
				}
				received.Add(1)
			}
		}()
	}
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(uint32(p*perProducer + i))
				if i%64 == 0 {
					time.Sleep(time.Microsecond) // force park/wake cycles
				}
			}
		}(p)
	}
	prod.Wait()
	q.Close()
	cons.Wait()
	if received.Load() != producers*perProducer {
		t.Fatalf("received %d of %d items", received.Load(), producers*perProducer)
	}
}

func TestInOrderSequentialDelivery(t *testing.T) {
	o := NewInOrder[int](16, 0)
	go func() {
		// Offer out of order: evens first, then odds.
		for i := 0; i < 10; i += 2 {
			o.Offer(uint64(i), i)
		}
		for i := 1; i < 10; i += 2 {
			o.Offer(uint64(i), i)
		}
	}()
	for i := 0; i < 10; i++ {
		seq, v, ok := o.Next()
		if !ok || seq != uint64(i) || v != i {
			t.Fatalf("Next = (%d,%d,%v), want (%d,%d,true)", seq, v, ok, i, i)
		}
	}
	o.Close()
	if _, _, ok := o.Next(); ok {
		t.Fatal("Next returned ok after Close")
	}
}

// TestInOrderRandomCompletionProperty drives InOrder with random completion
// orders from concurrent producers — exactly the out-of-order consensus
// scenario of Example 4.1 — and asserts strict in-order delivery.
func TestInOrderRandomCompletionProperty(t *testing.T) {
	f := func(seed int64) bool {
		const n = 200
		rnd := rand.New(rand.NewSource(seed))
		o := NewInOrder[uint64](2*n, 0)
		perm := rnd.Perm(n)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += 4 {
					seq := uint64(perm[i])
					o.Offer(seq, seq*3)
				}
			}(w)
		}
		ok := true
		for i := uint64(0); i < n; i++ {
			seq, v, alive := o.Next()
			if !alive || seq != i || v != i*3 {
				ok = false
				break
			}
		}
		wg.Wait()
		o.Close()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestInOrderNextOr: with a ready alt NextOr is a non-blocking poll that
// must deliver only the next in-order item — never an out-of-order one,
// and the item rather than the alt when both are ready — and interleave
// correctly with blocking Next calls from the same consumer. With an alt
// that is not ready it blocks until whichever of the two comes first.
func TestInOrderNextOr(t *testing.T) {
	ready := make(chan struct{})
	close(ready)
	o := NewInOrder[int](16, 0)
	if _, _, w := o.NextOr(ready); w != WokeAlt {
		t.Fatalf("NextOr on empty = %v, want WokeAlt", w)
	}
	o.Offer(1, 10) // out of order: seq 0 not offered yet
	if _, _, w := o.NextOr(ready); w != WokeAlt {
		t.Fatalf("NextOr with only out-of-order seq 1 offered = %v, want WokeAlt", w)
	}
	o.Offer(0, 0)
	for i := 0; i < 20; i++ { // the item must win every time, not at random
		p := NewInOrder[int](4, 0)
		p.Offer(0, 7)
		if seq, v, w := p.NextOr(ready); w != WokeItem || seq != 0 || v != 7 {
			t.Fatalf("NextOr with item and alt both ready = (%d,%d,%v), want the item", seq, v, w)
		}
	}
	seq, v, w := o.NextOr(ready)
	if w != WokeItem || seq != 0 || v != 0 {
		t.Fatalf("NextOr = (%d,%d,%v), want (0,0,WokeItem)", seq, v, w)
	}
	// Seq 1 is now the in-order head; blocking Next must pick it up.
	seq, v, ok := o.Next()
	if !ok || seq != 1 || v != 10 {
		t.Fatalf("Next = (%d,%d,%v), want (1,10,true)", seq, v, ok)
	}
	if _, _, w := o.NextOr(ready); w != WokeAlt {
		t.Fatalf("NextOr with nothing pending = %v, want WokeAlt", w)
	}

	// Blocking: an alt that fires later wakes the wait; so does an Offer,
	// and then the alt stays unconsumed for the caller.
	alt := make(chan struct{})
	got := make(chan Woke, 1)
	go func() {
		_, _, w := o.NextOr(alt)
		got <- w
	}()
	select {
	case w := <-got:
		t.Fatalf("NextOr returned %v with neither item nor alt ready", w)
	case <-time.After(20 * time.Millisecond):
	}
	close(alt)
	if w := <-got; w != WokeAlt {
		t.Fatalf("NextOr after alt fired = %v, want WokeAlt", w)
	}
	pending := make(chan struct{})
	go func() {
		seq, v, w := o.NextOr(pending)
		if seq != 2 || v != 20 {
			w = -1
		}
		got <- w
	}()
	o.Offer(2, 20)
	if w := <-got; w != WokeItem {
		t.Fatalf("NextOr after Offer = %v, want (2,20,WokeItem)", w)
	}

	o.Close()
	if _, _, w := o.NextOr(nil); w != WokeClosed {
		t.Fatalf("NextOr(nil) after Close with empty slot = %v, want WokeClosed", w)
	}
	if _, _, w := o.NextOr(ready); w == WokeItem {
		t.Fatal("NextOr delivered an item after Close with empty slot")
	}
}

func TestInOrderStartOffset(t *testing.T) {
	o := NewInOrder[string](8, 100)
	if o.NextSeq() != 100 {
		t.Fatalf("NextSeq = %d, want 100", o.NextSeq())
	}
	go o.Offer(101, "b")
	go o.Offer(100, "a")
	seq, v, _ := o.Next()
	if seq != 100 || v != "a" {
		t.Fatalf("got (%d,%q)", seq, v)
	}
	seq, v, _ = o.Next()
	if seq != 101 || v != "b" {
		t.Fatalf("got (%d,%q)", seq, v)
	}
}

// TestInOrderIsOneRing: an InOrder of the replica's size is a handful of
// allocations, the ring among them, not one (or more) per slot.
func TestInOrderIsOneRing(t *testing.T) {
	type item struct {
		p    *int
		seq  uint64
		body [96]byte
	}
	allocs := testing.AllocsPerRun(10, func() {
		NewInOrder[item](8192, 0).Close()
	})
	t.Logf("NewInOrder(8192) allocates %.0f times", allocs)
	if allocs > 4 {
		t.Fatalf("NewInOrder(8192) allocates %.0f times, want at most 4", allocs)
	}
}

// TestInOrderCycleAllocatesNothing: the execute-thread's steady cycle, an
// Offer out of order, one in order and the two in-order NextOr calls that
// take them, allocates nothing.
func TestInOrderCycleAllocatesNothing(t *testing.T) {
	type item struct {
		p   *int
		seq uint64
	}
	o := NewInOrder[item](64, 0)
	defer o.Close()
	ready := make(chan struct{})
	close(ready)
	seq := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		o.Offer(seq+1, item{seq: seq + 1})
		o.Offer(seq, item{seq: seq})
		for i := 0; i < 2; i++ {
			if got, v, w := o.NextOr(ready); w != WokeItem || got != seq || v.seq != seq {
				t.Fatalf("NextOr = (%d,%d,%v), want (%d,%d,WokeItem)", got, v.seq, w, seq, seq)
			}
			seq++
		}
	})
	if allocs != 0 {
		t.Fatalf("an Offer/NextOr cycle allocates %.0f times, want 0", allocs)
	}
}

// TestInOrderLappingOfferBlocks: an Offer for the slot of a sequence not yet
// consumed waits until the consumer takes that sequence, and then lands;
// Close releases an Offer so parked, reporting false, and a NextOr parked on
// an empty slot, reporting WokeClosed.
func TestInOrderLappingOfferBlocks(t *testing.T) {
	o := NewInOrder[int](2, 0)
	o.Offer(0, 0)
	o.Offer(1, 1)
	offered := make(chan bool, 1)
	go func() { offered <- o.Offer(2, 2) }() // slot 0 still holds sequence 0
	select {
	case ok := <-offered:
		t.Fatalf("Offer(2) into the slot of unconsumed sequence 0 returned %v", ok)
	case <-time.After(20 * time.Millisecond):
	}
	if seq, v, ok := o.Next(); !ok || seq != 0 || v != 0 {
		t.Fatalf("Next = (%d,%d,%v), want (0,0,true)", seq, v, ok)
	}
	if ok := <-offered; !ok {
		t.Fatal("Offer(2) reports false once its slot was consumed")
	}
	for want := 1; want <= 2; want++ {
		if seq, v, ok := o.Next(); !ok || seq != uint64(want) || v != want {
			t.Fatalf("Next = (%d,%d,%v), want (%d,%d,true)", seq, v, ok, want, want)
		}
	}

	// Sequence 3 waits in slot 1, so an Offer of 5 laps it; slot 0, where
	// the consumer waits for sequence 4, is empty.
	o.Offer(3, 3)
	if seq, _, _ := o.Next(); seq != 3 {
		t.Fatalf("Next = %d, want 3", seq)
	}
	o.Offer(5, 5)
	go func() { offered <- o.Offer(7, 7) }()
	woke := make(chan Woke, 1)
	go func() {
		_, _, w := o.NextOr(nil)
		woke <- w
	}()
	select {
	case ok := <-offered:
		t.Fatalf("Offer(7) into the slot of unconsumed sequence 5 returned %v", ok)
	case w := <-woke:
		t.Fatalf("NextOr returned %v with sequence 4 not offered", w)
	case <-time.After(20 * time.Millisecond):
	}
	o.Close()
	if ok := <-offered; ok {
		t.Fatal("Close left a lapping Offer reporting true")
	}
	if w := <-woke; w != WokeClosed {
		t.Fatalf("Close woke the parked NextOr with %v, want WokeClosed", w)
	}
}

func TestMapReorderMatchesInOrder(t *testing.T) {
	const n = 100
	m := NewMapReorder[int](0)
	perm := rand.New(rand.NewSource(7)).Perm(n)
	go func() {
		for _, s := range perm {
			m.Offer(uint64(s), s)
		}
	}()
	for i := 0; i < n; i++ {
		seq, v, ok := m.Next()
		if !ok || seq != uint64(i) || v != i {
			t.Fatalf("MapReorder out of order: (%d,%d,%v)", seq, v, ok)
		}
	}
	m.Close()
	if _, _, ok := m.Next(); ok {
		t.Fatal("MapReorder.Next ok after close")
	}
}

// ---- Ablation benchmarks: queue implementations under the batch-thread
// workload shape (1 producer input-thread, B consumer batch-threads). ----

func benchQueue(b *testing.B, q Queue[int], consumers int) {
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := q.Pop(); !ok {
					return
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
	}
	q.Close()
	wg.Wait()
}

func BenchmarkQueueMPMC(b *testing.B)  { benchQueue(b, NewMPMC[int](1024), 2) }
func BenchmarkQueueMutex(b *testing.B) { benchQueue(b, NewMutexQueue[int](1024), 2) }
func BenchmarkQueueChan(b *testing.B)  { benchQueue(b, NewChanQueue[int](1024), 2) }

func BenchmarkInOrderOfferNext(b *testing.B) {
	o := NewInOrder[int](1024, 0)
	go func() {
		for i := 0; i < b.N; i++ {
			o.Offer(uint64(i), i)
		}
	}()
	for i := 0; i < b.N; i++ {
		o.Next()
	}
	o.Close()
}

func BenchmarkMapReorderOfferNext(b *testing.B) {
	o := NewMapReorder[int](0)
	go func() {
		for i := 0; i < b.N; i++ {
			o.Offer(uint64(i), i)
		}
	}()
	for i := 0; i < b.N; i++ {
		o.Next()
	}
	o.Close()
}
