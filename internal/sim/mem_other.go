//go:build !unix

package sim

// mapWords returns n zero words. Without a unix mmap the run's memory is
// a heap slice, which is exact but resident in full.
func mapWords(n int) ([]int64, error) { return make([]int64, n), nil }

// unmapWords leaves the heap slice to the garbage collector.
func unmapWords([]int64) {}
