// Package sim is a deterministic discrete-event simulator that replays the
// paper's evaluation at full scale — 4 to 32 replicas, 8 cores each, up to
// 80K closed-loop clients — on a single laptop-class machine.
//
// The simulator drives the very same PBFT engines (internal/consensus/pbft
// and .../client) as the runnable replica pipeline; only the environment is
// modelled. Zyzzyva, the baseline no replica runs, is a model of its own
// here (zyzzyva.go), under the same environment:
//
//   - Hosts own a fixed number of cores; logical threads (input, batch,
//     worker, execute, checkpoint, output — the Figure 6 pipeline) queue
//     jobs FIFO and contend for cores, which is how the thread-saturation
//     and core-count experiments (Figures 9 and 16) arise.
//   - NICs serialize outbound bytes at a configured bandwidth and links
//     add latency, which is how the message-size experiment (Figure 12)
//     arises.
//   - Every processing step is billed per the cost model
//     (internal/sim/costmodel.go), whose defaults are calibrated from
//     microbenchmarks of this repository's real crypto, storage, and
//     codec implementations on the host machine.
//
// All randomness flows from one seeded source and the event queue breaks
// ties deterministically, so identical configurations produce identical
// results.
package sim

import (
	"container/heap"
)

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

type event struct {
	at  Time
	seq uint64 // insertion order; deterministic tie-break
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() event   { return h[0] }

// Sim is the event loop.
type Sim struct {
	now    Time
	events eventHeap
	seq    uint64
}

// NewSim returns an empty simulation at time zero.
func NewSim() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn at absolute time t (clamped to now).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Run processes events until the queue drains or virtual time passes
// until. It returns the number of events processed.
func (s *Sim) Run(until Time) uint64 {
	var processed uint64
	for len(s.events) > 0 {
		if s.events.Peek().at > until {
			break
		}
		e := heap.Pop(&s.events).(event)
		s.now = e.at
		e.fn()
		processed++
	}
	if s.now < until {
		s.now = until
	}
	return processed
}

// ---- Hosts, threads, cores ----

type job struct {
	cost Time
	fn   func()
}

// Thread is a logical pipeline thread: a FIFO job queue that must hold a
// core while processing. BusyNS accumulates processing time, which is the
// Figure 9 saturation numerator.
type Thread struct {
	Name    string
	host    *Host
	q       []job
	head    int
	running bool
	waiting bool
	BusyNS  Time
}

// QueueLen returns the number of queued (not yet started) jobs.
func (t *Thread) QueueLen() int { return len(t.q) - t.head }

// Host models one machine: a set of threads multiplexed onto Cores cores,
// plus a NIC.
type Host struct {
	sim       *Sim
	Cores     int
	coresFree int
	waitQ     []*Thread // threads with pending work awaiting a core
	threads   []*Thread
	NIC       *NIC
	// CtxSwitch is the per-job oversubscription penalty; see
	// costModel.CtxSwitch.
	CtxSwitch Time
}

// NewHost creates a host with the given core count and NIC.
func NewHost(s *Sim, cores int, nic *NIC) *Host {
	if cores < 1 {
		cores = 1
	}
	return &Host{sim: s, Cores: cores, coresFree: cores, NIC: nic}
}

// NewThread registers a named thread on the host.
func (h *Host) NewThread(name string) *Thread {
	t := &Thread{Name: name, host: h}
	h.threads = append(h.threads, t)
	return t
}

// Threads returns the host's threads in creation order.
func (h *Host) Threads() []*Thread { return h.threads }

// Submit enqueues a job with the given processing cost on a thread; fn
// runs at the job's virtual completion time. Oversubscribed hosts pay a
// scheduling penalty per job.
func (h *Host) Submit(t *Thread, cost Time, fn func()) {
	if cost < 0 {
		cost = 0
	}
	if over := len(h.threads) - h.Cores; over > 0 && h.CtxSwitch > 0 {
		cost += h.CtxSwitch * Time(over) / Time(h.Cores)
	}
	t.q = append(t.q, job{cost: cost, fn: fn})
	h.dispatch(t)
}

func (h *Host) dispatch(t *Thread) {
	if t.running || t.QueueLen() == 0 {
		return
	}
	if h.coresFree == 0 {
		if !t.waiting {
			t.waiting = true
			h.waitQ = append(h.waitQ, t)
		}
		return
	}
	h.coresFree--
	t.running = true
	j := t.q[t.head]
	t.head++
	if t.head > 64 && t.head*2 >= len(t.q) {
		t.q = append(t.q[:0], t.q[t.head:]...)
		t.head = 0
	}
	t.BusyNS += j.cost
	h.sim.After(j.cost, func() {
		t.running = false
		h.coresFree++
		j.fn()
		// Wake a waiting thread first (FIFO fairness), then this thread
		// if it still has work.
		h.wakeWaiting()
		h.dispatch(t)
	})
}

func (h *Host) wakeWaiting() {
	for len(h.waitQ) > 0 && h.coresFree > 0 {
		t := h.waitQ[0]
		h.waitQ = h.waitQ[1:]
		t.waiting = false
		h.dispatch(t)
	}
}

// ---- Network ----

// NIC serializes outbound bytes at a fixed bandwidth. Transmissions queue
// behind each other, which is what makes large pre-prepare broadcasts
// network-bound (Section 5.5).
type NIC struct {
	sim       *Sim
	bandwidth float64 // bytes per nanosecond
	busyUntil Time
	SentBytes int64
	SentMsgs  int64
}

// NewNIC creates a NIC with bandwidth in bytes/second.
func NewNIC(s *Sim, bytesPerSecond float64) *NIC {
	return &NIC{sim: s, bandwidth: bytesPerSecond / float64(Second)}
}

// Send transmits size bytes, invoking deliver after serialization plus
// latency.
func (n *NIC) Send(size int, latency Time, deliver func()) {
	tx := Time(0)
	if n.bandwidth > 0 {
		tx = Time(float64(size) / n.bandwidth)
	}
	start := n.busyUntil
	if now := n.sim.Now(); start < now {
		start = now
	}
	n.busyUntil = start + tx
	n.SentBytes += int64(size)
	n.SentMsgs++
	n.sim.At(n.busyUntil+latency, deliver)
}
