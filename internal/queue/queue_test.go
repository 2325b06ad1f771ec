package queue

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// The TestQueue* tests check Handoff in a subtest named for what backs it,
// a buffered channel: "chan", the name these cases have always had.
func TestQueueFIFOSingleThreaded(t *testing.T) {
	t.Run("chan", func(t *testing.T) {
		q := NewHandoff[int]("fifo", 8)
		for i := 0; i < 5; i++ {
			if !q.TryPush(i) {
				t.Fatalf("TryPush(%d) failed on empty-ish queue", i)
			}
		}
		if q.Name() != "fifo" || q.Len() != 5 || q.Cap() != 8 {
			t.Fatalf("Name, Len, Cap = %q, %d, %d, want fifo, 5, 8", q.Name(), q.Len(), q.Cap())
		}
		for i := 0; i < 5; i++ {
			if v := <-q.C(); v != i {
				t.Fatalf("received %d, want %d", v, i)
			}
		}
		select {
		case v := <-q.C():
			t.Fatalf("received %d from an empty queue", v)
		default:
		}
	})
}

func TestQueueFullBehaviour(t *testing.T) {
	t.Run("chan", func(t *testing.T) {
		q := NewHandoff[int]("full", 2)
		if !q.TryPush(1) || !q.TryPush(2) {
			t.Fatal("fill failed")
		}
		if q.TryPush(3) {
			t.Fatal("TryPush succeeded on full queue")
		}
		if v := <-q.C(); v != 1 {
			t.Fatalf("received %d, want 1", v)
		}
		if !q.TryPush(3) {
			t.Fatal("TryPush failed after a receive freed space")
		}
	})
}

func TestQueueCloseDrains(t *testing.T) {
	t.Run("chan", func(t *testing.T) {
		q := NewHandoff[int]("drain", 8)
		q.TryPush(1)
		q.TryPush(2)
		q.Close()
		var got []int
		for v := range q.C() {
			got = append(got, v)
		}
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("drained %v after Close, want [1 2]", got)
		}
	})
}

func TestQueueCloseUnblocksPop(t *testing.T) {
	t.Run("chan", func(t *testing.T) {
		q := NewHandoff[int]("unblock", 4)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, ok := <-q.C(); ok {
				t.Error("receive returned ok on closed empty queue")
			}
		}()
		q.Close()
		<-done
	})
}

// TestQueueConcurrentMultiset checks that under heavy concurrency every
// pushed value is received exactly once (no loss, no duplication).
func TestQueueConcurrentMultiset(t *testing.T) {
	t.Run("chan", func(t *testing.T) {
		const producers, consumers, perProducer = 4, 4, 2000
		q := NewHandoff[int]("multiset", 64)
		var wg sync.WaitGroup
		results := make(chan int, producers*perProducer)
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := range q.C() {
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
					if !q.Push(p*perProducer+i, nil) {
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
			t.Fatalf("received %d values, want %d", len(got), producers*perProducer)
		}
		sort.Ints(got)
		for i, v := range got {
			if v != i {
				t.Fatalf("multiset mismatch at %d: %d", i, v)
			}
		}
	})
}

// TestHandoffPerProducerOrder: each producer's items come out in the order
// it pushed them, however the producers interleave.
func TestHandoffPerProducerOrder(t *testing.T) {
	q := NewHandoff[[2]int]("order", 32)
	const producers, perProducer = 3, 3000
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push([2]int{p, i}, nil)
			}
		}(p)
	}
	go func() { pwg.Wait(); q.Close() }()

	last := map[int]int{0: -1, 1: -1, 2: -1}
	for v := range q.C() {
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

// TestHandoffPushGivesUpOnStop: a Push waiting on a full queue returns
// false once its stop channel closes, and the queue keeps what it held.
func TestHandoffPushGivesUpOnStop(t *testing.T) {
	q := NewHandoff[int]("stop", 1)
	stop := make(chan struct{})
	if !q.Push(1, stop) {
		t.Fatal("Push into an empty queue reported false")
	}
	pushed := make(chan bool, 1)
	go func() { pushed <- q.Push(2, stop) }()
	select {
	case ok := <-pushed:
		t.Fatalf("Push into a full queue returned %v before stop", ok)
	case <-time.After(20 * time.Millisecond):
	}
	close(stop)
	select {
	case ok := <-pushed:
		if ok {
			t.Fatal("Push gave up on stop but reported true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a Push blocked on a full queue ignored stop")
	}
	if q.Len() != 1 || <-q.C() != 1 {
		t.Fatal("the queue lost what it held when a Push gave up")
	}
}

// TestHandoffAllocatesNothing: a stage boundary's steady cycle, a value
// pushed and received, allocates nothing. The item has the replica's
// workItem shape: pointers, an interface and a flag.
func TestHandoffAllocatesNothing(t *testing.T) {
	type workItem struct {
		env      *int
		msg      interface{ String() string }
		req      *int
		verified bool
	}
	q := NewHandoff[workItem]("work", 64)
	stop := make(chan struct{})
	env := new(int)
	allocs := testing.AllocsPerRun(1000, func() {
		if !q.Push(workItem{env: env, verified: true}, stop) || !q.TryPush(workItem{req: env}) {
			t.Fatal("push into a queue with room failed")
		}
		for i := 0; i < 2; i++ {
			<-q.C()
		}
	})
	if allocs != 0 {
		t.Fatalf("a push and receive cycle allocates %.0f times, want 0", allocs)
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

// TestInOrderTryNext: TryNext delivers only the next in-order item and
// never waits, before an Offer, with only a later sequence offered, and
// after Close.
func TestInOrderTryNext(t *testing.T) {
	o := NewInOrder[int](4, 0)
	if _, _, ok := o.TryNext(); ok {
		t.Fatal("TryNext on empty delivered an item")
	}
	o.Offer(1, 10)
	if _, _, ok := o.TryNext(); ok {
		t.Fatal("TryNext delivered out-of-order seq 1")
	}
	o.Offer(0, 7)
	for want := uint64(0); want < 2; want++ {
		if seq, v, ok := o.TryNext(); !ok || seq != want || v != 7+3*int(want) {
			t.Fatalf("TryNext = (%d,%d,%v), want seq %d", seq, v, ok, want)
		}
	}
	o.Close()
	if _, _, ok := o.TryNext(); ok {
		t.Fatal("TryNext delivered an item after Close with empty slot")
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
