package kernel

import (
	"runtime"
	"sync"
)

// The preserve hot loops — checksum staging in planMove, the background
// verify walk, and the migration stamp scan/re-hash — are embarrassingly
// parallel page walks over a quiescent address space. They run over a
// bounded worker pool of host goroutines; every worker owns a contiguous
// disjoint index range and writes only slots in that range, and the caller
// merges the staged per-index results serially in page order. Scheduling
// order therefore never leaks into the outcome: the plans, checksums,
// counters, and the simulated clock are byte-identical whatever the worker
// count, which is what keeps same-seed campaign JSONs and the explore
// replay gate intact. The simulated clock charges the serial walks: the
// pool's width is wall-clock time only.

// maxWorkers bounds the pool: the walks are memory-bound, so wider pools
// stop paying long before high core counts.
const maxWorkers = 8

// poolWidth is the walks' pool width: the machine's test override when set,
// else one worker per host CPU, capped at maxWorkers.
func (m *Machine) poolWidth() int {
	w := m.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, maxWorkers)
}

// parallelRanges splits [0, n) into at most workers contiguous chunks and
// runs fn over each concurrently, returning when all chunks are done. fn
// must confine its writes to index-owned slots. workers <= 1 (or a single
// chunk) runs inline on the caller's goroutine.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
