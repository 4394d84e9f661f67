//go:build !unix

package kvstore

import (
	"errors"
	"os"
)

// FileStore reads its log through a mapping and has no other read path;
// where there is no mmap, OpenFile fails and only MemStore is available.
func mmap(*os.File, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func munmap([]byte) error { return nil }
