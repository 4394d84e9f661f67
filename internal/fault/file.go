package fault

import (
	"io"
	"time"
)

// File is the slice of *os.File behavior the storage layer writes
// through. Wrapping it (rather than the Store interface) keeps fault
// injection below the store's append buffer, so torn writes land at the
// file tail. Reads are not part of it: the storage layer reads through a
// mapping.
type File interface {
	io.Writer
	io.Closer
}

// WrapFile returns f with the failpoint <point>/write spliced into its
// write path; it honors KindTorn: the first Action.Bytes bytes reach the
// file, then the write fails. The point is registered here. With it not
// armed the overhead per call is one atomic load.
func WrapFile(point string, f File) File {
	return &faultFile{File: f, writeName: Register(point + "/write")}
}

type faultFile struct {
	File
	writeName string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if active.Load() == 0 {
		return f.File.Write(p)
	}
	a := take(f.writeName)
	if a == nil {
		return f.File.Write(p)
	}
	switch a.Kind {
	case KindTorn:
		n := min(a.Bytes, len(p))
		wrote, err := f.File.Write(p[:n])
		if err != nil {
			return wrote, err
		}
		return wrote, &Error{Point: f.writeName, Msg: a.Msg}
	case KindDelay:
		time.Sleep(a.Delay)
		return f.File.Write(p)
	case KindPanic:
		panic(&PanicValue{Point: f.writeName})
	default:
		return 0, &Error{Point: f.writeName, Msg: a.Msg}
	}
}
