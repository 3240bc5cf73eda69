package core

import (
	"errors"
	"fmt"
	"time"

	"dex/internal/sim"
)

// File I/O is the paper's second example of a stateful OS feature supported
// through work delegation (§III-A): the file table and data live at the
// origin (the paper's nodes mount one NFS share), and a remote thread's
// read or write is shipped to its paired origin context, performed there,
// and only the result crosses back.

// ErrBadFD is returned for operations on unknown file descriptors.
var ErrBadFD = errors.New("core: bad file descriptor")

// ErrNoFile is returned when opening a file that was never registered.
var ErrNoFile = errors.New("core: no such file")

// fileTable is the origin-side state: registered files and open
// descriptors with their offsets.
type fileTable struct {
	files map[string][]byte
	fds   map[int]*openFile
	next  int
}

type openFile struct {
	name string
	off  int
}

func newFileTable() *fileTable {
	return &fileTable{
		files: make(map[string][]byte),
		fds:   make(map[int]*openFile),
		next:  3, // 0-2 reserved, as tradition demands
	}
}

// RegisterFile installs a file's contents in the process's origin-side
// file system (the simulated NFS share). Call before or during the run.
func (p *Process) RegisterFile(name string, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	p.files.files[name] = buf
}

// FileIOCost models the origin-side cost of a file operation: a fixed
// syscall cost plus page-cache bandwidth.
const (
	fileOpCost        = 2 * time.Microsecond
	fileBytesPerSec   = 6e9
	fileChunkMaxBytes = 1 << 20
)

func fileCost(n int) time.Duration {
	return fileOpCost + time.Duration(float64(n)/fileBytesPerSec*float64(time.Second))
}

// Open opens a registered file for reading and writing, returning a file
// descriptor. Like every file operation it executes at the origin.
func (th *Thread) Open(name string) (int, error) {
	r := delegate(th.proc, th, "open", func(t *sim.Task) result[int] {
		t.Sleep(fileOpCost)
		ft := th.proc.files
		if _, ok := ft.files[name]; !ok {
			return result[int]{err: fmt.Errorf("%w: %q", ErrNoFile, name)}
		}
		fd := ft.next
		ft.next++
		ft.fds[fd] = &openFile{name: name}
		return result[int]{v: fd}
	})
	return r.v, r.err
}

// Close releases a file descriptor.
func (th *Thread) Close(fd int) error {
	return delegate(th.proc, th, "close", func(t *sim.Task) error {
		t.Sleep(fileOpCost)
		ft := th.proc.files
		if _, ok := ft.fds[fd]; !ok {
			return fmt.Errorf("%w: %d", ErrBadFD, fd)
		}
		delete(ft.fds, fd)
		return nil
	})
}

// Pread reads up to len(buf) bytes at offset off, without moving the file
// offset. It returns the bytes read; reads at or past EOF return 0.
func (th *Thread) Pread(fd int, buf []byte, off int) (int, error) {
	return th.readAt("pread", fd, buf, off, false)
}

// FileRead reads from the descriptor's current offset and advances it.
func (th *Thread) FileRead(fd int, buf []byte) (int, error) {
	return th.readAt("read", fd, buf, 0, true)
}

// readAt is the body of Pread and FileRead: a delegated read of up to
// len(buf) bytes at off or, if sequential, at the descriptor's own offset,
// which then moves past what was read.
func (th *Thread) readAt(name string, fd int, buf []byte, off int, sequential bool) (int, error) {
	want := min(len(buf), fileChunkMaxBytes)
	r := delegate(th.proc, th, name, func(t *sim.Task) result[[]byte] {
		ft := th.proc.files
		of, ok := ft.fds[fd]
		if !ok {
			return result[[]byte]{err: fmt.Errorf("%w: %d", ErrBadFD, fd)}
		}
		data, at := ft.files[of.name], off
		if sequential {
			at = of.off
		}
		if at < 0 || at >= len(data) {
			t.Sleep(fileOpCost)
			return result[[]byte]{}
		}
		n := min(want, len(data)-at)
		t.Sleep(fileCost(n))
		out := make([]byte, n)
		copy(out, data[at:at+n])
		if sequential {
			of.off += n
		}
		return result[[]byte]{v: out}
	})
	if r.err != nil {
		return 0, r.err
	}
	copy(buf, r.v)
	// The returned bytes crossed the fabric inside the reply for remote
	// callers; charge the local copy into the caller's buffer.
	if len(r.v) > 0 {
		th.chargeSmall(min(len(r.v), smallAccess))
	}
	return len(r.v), nil
}

// Pwrite writes buf at offset off, growing the file as needed, and returns
// the bytes written.
func (th *Thread) Pwrite(fd int, buf []byte, off int) (int, error) {
	data := make([]byte, len(buf))
	copy(data, buf)
	r := delegate(th.proc, th, "pwrite", func(t *sim.Task) result[int] {
		ft := th.proc.files
		of, ok := ft.fds[fd]
		if !ok {
			return result[int]{err: fmt.Errorf("%w: %d", ErrBadFD, fd)}
		}
		file := ft.files[of.name]
		if need := off + len(data); need > len(file) {
			grown := make([]byte, need)
			copy(grown, file)
			file = grown
		}
		copy(file[off:], data)
		ft.files[of.name] = file
		t.Sleep(fileCost(len(data)))
		return result[int]{v: len(data)}
	})
	return r.v, r.err
}

// FileSize returns the current size of a registered file.
func (th *Thread) FileSize(name string) (int, error) {
	r := delegate(th.proc, th, "stat", func(t *sim.Task) result[int] {
		t.Sleep(fileOpCost)
		data, ok := th.proc.files.files[name]
		if !ok {
			return result[int]{err: fmt.Errorf("%w: %q", ErrNoFile, name)}
		}
		return result[int]{v: len(data)}
	})
	return r.v, r.err
}
