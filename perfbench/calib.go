package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"syscall"
	"unsafe"
)

// The host's speed is calibrated throughout every run. On a small
// virtual machine that shares its host, the same code's CPU time per
// operation moved by 2-2.5x over minutes as other tenants loaded the
// machine: the VM's CPUs then retire fewer instructions per second, and
// CPU time cannot hide that. The calibration kernel is fixed code of the
// benchmark's own, so it does the same work on every commit; timing it
// between the chunks of the timed passes measures how fast the host
// runs, and the run's CPU times are scaled to a reference host on which
// one kernel run takes calibRefMS (see env.speed).

// calibRefMS defines the reference host: one on which the kernel takes
// this many CPU ms. On a 2-CPU Xeon virtual machine the kernel took
// 23-47 ms while the machine's host was loaded, which slowed the
// workloads about 2.3x against a quiet host.
const calibRefMS = 15

// calibRuns is how many kernel runs make one calibration; its figure is
// their median.
const calibRuns = 3

// calibKernel holds the kernel's fixed inputs. It mixes the kinds of
// work the workloads do: hash-map updates and dependent loads over a
// working set larger than the caches take about a third of its time
// each, short-lived allocations for the garbage collector about a fifth,
// and word-parallel bitset intersections the rest. The working set is mapped outside the Go heap,
// so heap_mb and the collector do not see it.
type calibKernel struct {
	chain []uint32 // one random cycle over calibSlots slots
	a, b  []uint64 // bitsets of 2^15 bits
}

const calibSlots = 1 << 23 // 32 MiB

func newCalibKernel() (*calibKernel, error) {
	mem, err := syscall.Mmap(-1, 0, 4*calibSlots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("calibration working set: %w", err)
	}
	k := &calibKernel{chain: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibSlots), a: make([]uint64, 512), b: make([]uint64, 512)}
	rng := rand.New(rand.NewSource(corpusSeed))
	for i := range k.chain {
		k.chain[i] = uint32(i)
	}
	for i := len(k.chain) - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle
		j := rng.Intn(i)
		k.chain[i], k.chain[j] = k.chain[j], k.chain[i]
	}
	for i := range k.a {
		k.a[i], k.b[i] = rng.Uint64(), rng.Uint64()
	}
	return k, nil
}

// close unmaps the working set.
func (k *calibKernel) close() {
	mem := unsafe.Slice((*byte)(unsafe.Pointer(&k.chain[0])), 4*len(k.chain))
	k.chain = nil
	_ = syscall.Munmap(mem)
}

var calibSink uint64

// once runs the kernel once.
func (k *calibKernel) once() {
	var acc uint64
	m := make(map[uint32]uint32)
	x := uint32(2463534242)
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		m[x&0xffff] += x
	}
	acc += uint64(len(m))
	p := uint32(0)
	for i := 0; i < 60_000; i++ {
		p = k.chain[p]
	}
	acc += uint64(p)
	for r := 0; r < 3000; r++ {
		s := r & 511
		for i := range k.a {
			acc += uint64(bits.OnesCount64(k.a[i] & k.b[(i+s)&511]))
		}
	}
	keep := make([][]int32, 0, 256)
	for i := 0; i < 80_000; i++ {
		v := make([]int32, 4+i%28)
		v[0] = int32(i)
		if len(keep) == cap(keep) {
			keep = keep[:0]
		}
		keep = append(keep, v)
	}
	acc += uint64(len(keep))
	calibSink += acc
}

// measure is the median CPU ms of calibRuns kernel runs.
func (k *calibKernel) measure() float64 {
	var t [calibRuns]float64
	for i := range t {
		start := cpuMS()
		k.once()
		t[i] = cpuMS() - start
	}
	sort.Float64s(t[:])
	return t[calibRuns/2]
}
