//go:build !unix

package kvstore

import (
	"errors"
	"os"
)

// A file-backed LogStore reads its log through a mapping and has no other
// read path; where there is no mmap, OpenFile fails and only NewMem stores
// are available.
func mmap(*os.File, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func munmap([]byte) error { return nil }
