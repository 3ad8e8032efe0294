package main

import "syscall"

// The benchmark's bulk inputs (the cold pool's request bodies and the
// clients' response arenas) live in anonymous mappings outside the Go
// heap. The GC sizes its heap goal from everything live on the heap, so
// inputs held there would come back into heap_peak_mb through the GC's
// headroom; outside it, the peak follows the program's own heap.

// offHeap maps n zeroed bytes.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, max(n, 1), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err) // out of address space: nothing sensible to continue with
	}
	return b
}

// freeOffHeap unmaps a region offHeap returned.
func freeOffHeap(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(err) // only a region offHeap returned is ever passed here
	}
}
