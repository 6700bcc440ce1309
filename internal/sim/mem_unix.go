//go:build unix

package sim

import (
	"os"
	"syscall"
	"unsafe"
)

// mapWords returns n zero words backed by a fresh private anonymous
// mapping, or the kernel's error when it refuses one. The kernel
// zero-fills each page on first touch, so a run's resident memory is the
// pages it uses, not the full address space.
func mapWords(n int) ([]int64, error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, os.NewSyscallError("mmap", err)
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
}

// unmapWords returns a mapWords mapping to the kernel.
func unmapWords(mem []int64) {
	// Munmap fails only for a slice mapWords did not return.
	if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&mem[0])), len(mem)*8)); err != nil {
		panic("sim: unmapping run memory: " + err.Error())
	}
}
