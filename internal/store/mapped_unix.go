//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mapUnit is the granularity of a mapping: the system's page.
var mapUnit = os.Getpagesize()

// sysMap maps size bytes of private anonymous memory, zero until written.
// Running out of address space is fatal here as it is for make.
func sysMap(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("store: mapping %d bytes for a record table: %v", size, err))
	}
	return b
}

// sysUnmap unmaps a mapping sysMap returned, whole.
func sysUnmap(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("store: unmapping %d bytes of a record table: %v", len(b), err))
	}
}
