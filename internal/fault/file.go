package fault

import (
	"io"
	"os"
	"time"
)

// File is the slice of *os.File behavior the storage layer depends on.
// Wrapping it (rather than the Store interface) keeps fault injection
// below the store's append buffer, so torn writes land exactly where a
// crashed process would leave them: a partial frame at the file tail.
// Reads are not part of it: the storage layer reads through a mapping.
type File interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
}

// WrapFile returns f with two failpoints spliced into its write path:
// <point>/write (honors KindTorn: the first Action.Bytes bytes reach the
// file, then the write fails) and <point>/sync. Both are registered here.
// With no point armed the overhead per call is one atomic load.
func WrapFile(point string, f File) File {
	return &faultFile{
		File:      f,
		writeName: Register(point + "/write"),
		syncName:  Register(point + "/sync"),
	}
}

type faultFile struct {
	File
	writeName string
	syncName  string
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

func (f *faultFile) Sync() error {
	if err := Inject(f.syncName); err != nil {
		return err
	}
	return f.File.Sync()
}
