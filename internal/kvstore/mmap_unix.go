//go:build unix

package kvstore

import (
	"os"
	"syscall"
)

// mmap maps the first n bytes of f read-only and shared, so bytes later
// written to the file show through without a remap. n may exceed the file
// size; touching a page wholly past the end of the file faults.
func mmap(f *os.File, n int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, n, syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmap releases a mapping; nil, the mapping of a file store that has
// not flushed yet, is none.
func munmap(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}
