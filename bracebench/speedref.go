package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine-speed reference. On a shared VM the host's load moves every
// wall-clock figure by 10-50% over minutes: hypervisor steal, neighbours
// that slow the caches and memory without showing as steal, and slower
// wake-ups of idle vCPUs. A fixed kernel timed between the workload's
// operations sees the same slowdown, so the timed end-to-end metrics are
// reported at the reference box's speed: raw figure × (nominal ÷ kernel
// time over the run). The kernels do not call BRACE, so no change to the
// program moves them.
//
// Each workload is scaled by the kernel that matches what bounds it:
//   - computeKernel, for the fish workloads, whose ticks keep both vCPUs
//     busy;
//   - wakeKernel, for the service, whose runs mostly wait on barriers and
//     sockets while the vCPUs idle.

// A kernel's nominal time is its time on the idle reference box (a 2-vCPU
// Intel Xeon VM, go1.24). It only sets the scale: on that box at rest the
// reported figures equal the raw ones.
const (
	computeNominal = 10e-3  // seconds
	wakeNominal    = 1.8e-3 // seconds
)

const (
	// computeLoads is the dependent loads one goroutine makes per run.
	computeLoads = 800_000
	// wakeRounds is the round trips per run, each after wakeGap of
	// spinning, long enough for the echo side's thread to park.
	wakeRounds = 100
	wakeGap    = 100 * time.Microsecond
)

// refTable is a fixed 4 MiB table of random indices into itself: every
// load depends on the one before it, as in a tree or list traversal. It
// is mapped outside the Go heap, so it neither shows in live_heap_mb nor
// raises the collector's heap goal for the workload.
var refTable = func() []uint32 {
	const n = 1 << 20
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("bracebench: mapping the speed kernel's table: %v", err))
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x & (n - 1)
	}
	return t
}()

// refSink keeps the compute kernel's result live.
var refSink uint32

// computeKernel walks refTable on GOMAXPROCS goroutines, each from its
// own start, and returns the wall time.
func computeKernel() (float64, error) {
	procs := runtime.GOMAXPROCS(0)
	sums := make([]uint32, procs)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i, h := uint32(g*7919), uint32(0)
			for n := 0; n < computeLoads; n++ {
				i = refTable[i] ^ uint32(n&7)
				h = h*31 + i
			}
			sums[g] = h
		}(g)
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, h := range sums {
		refSink += h
	}
	return d, nil
}

// wakeKernel sends wakeRounds small messages over a loopback TCP
// connection to a goroutine that echoes them, spinning wakeGap before
// each, and returns the summed round-trip time: a parked thread woken
// through the network poller, as at a barrier.
func wakeKernel() (float64, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- c
	}()
	a, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b := <-accepted
	if b == nil {
		return 0, fmt.Errorf("speed kernel: accept failed")
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		buf := make([]byte, 8)
		for {
			if _, err := io.ReadFull(b, buf); err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	defer func() { b.Close(); <-echoed }()
	buf := make([]byte, 8)
	var d time.Duration
	for r := 0; r < wakeRounds; r++ {
		for s := time.Now(); time.Since(s) < wakeGap; {
		}
		t0 := time.Now()
		if _, err := a.Write(buf); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(a, buf); err != nil {
			return 0, err
		}
		d += time.Since(t0)
	}
	return d.Seconds(), nil
}

// speedRef collects one kernel's times over a pass.
type speedRef struct {
	wake    bool // wakeKernel; otherwise computeKernel
	mu      sync.Mutex
	samples []float64 // kernel time ÷ its nominal time
}

// sample times one run of the kernel. The caller makes sure no workload
// operation runs meanwhile. A kernel that fails records nothing: it only
// needs a loopback connection, which the workloads need too.
func (s *speedRef) sample() {
	kernel, nominal := computeKernel, computeNominal
	if s.wake {
		kernel, nominal = wakeKernel, wakeNominal
	}
	d, err := kernel()
	if err != nil {
		return
	}
	s.mu.Lock()
	s.samples = append(s.samples, d/nominal)
	s.mu.Unlock()
}

// slowdown is how much slower than the reference box this machine ran
// over the pass: the kernel's mean time over its nominal time, with the
// fastest and slowest tenth of the samples left out. A mean, not a
// median: steal comes in bursts that most short samples miss, and the
// workload's longer operations pay for them on average. It is 1 when
// nothing was sampled.
func (s *speedRef) slowdown() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 1
	}
	x := append([]float64(nil), s.samples...)
	sort.Float64s(x)
	k := len(x) / 10
	return mean(x[k : len(x)-k])
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
