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
	type res struct {
		fd  int
		err error
	}
	r := th.proc.delegate(th, "open", func(t *sim.Task) any {
		t.Sleep(fileOpCost)
		ft := th.proc.files
		if _, ok := ft.files[name]; !ok {
			return res{err: fmt.Errorf("%w: %q", ErrNoFile, name)}
		}
		fd := ft.next
		ft.next++
		ft.fds[fd] = &openFile{name: name}
		return res{fd: fd}
	}).(res)
	return r.fd, r.err
}

// Close releases a file descriptor.
func (th *Thread) Close(fd int) error {
	r := th.proc.delegate(th, "close", func(t *sim.Task) any {
		t.Sleep(fileOpCost)
		ft := th.proc.files
		if _, ok := ft.fds[fd]; !ok {
			return fmt.Errorf("%w: %d", ErrBadFD, fd)
		}
		delete(ft.fds, fd)
		return nil
	})
	if r == nil {
		return nil
	}
	return r.(error)
}

// Pread reads up to len(buf) bytes at offset off, without moving the file
// offset. It returns the bytes read; reads at or past EOF return 0.
func (th *Thread) Pread(fd int, buf []byte, off int) (int, error) {
	type res struct {
		data []byte
		err  error
	}
	want := len(buf)
	if want > fileChunkMaxBytes {
		want = fileChunkMaxBytes
	}
	r := th.proc.delegate(th, "pread", func(t *sim.Task) any {
		ft := th.proc.files
		of, ok := ft.fds[fd]
		if !ok {
			return res{err: fmt.Errorf("%w: %d", ErrBadFD, fd)}
		}
		data := ft.files[of.name]
		if off < 0 || off >= len(data) {
			t.Sleep(fileOpCost)
			return res{}
		}
		n := want
		if off+n > len(data) {
			n = len(data) - off
		}
		t.Sleep(fileCost(n))
		out := make([]byte, n)
		copy(out, data[off:off+n])
		return res{data: out}
	}).(res)
	if r.err != nil {
		return 0, r.err
	}
	copy(buf, r.data)
	// The returned bytes crossed the fabric inside the reply for remote
	// callers; charge the local copy into the caller's buffer.
	if len(r.data) > 0 {
		th.chargeSmall(min(len(r.data), smallAccess))
	}
	return len(r.data), nil
}

// Read reads from the descriptor's current offset and advances it.
func (th *Thread) FileRead(fd int, buf []byte) (int, error) {
	type res struct {
		data []byte
		err  error
	}
	want := len(buf)
	if want > fileChunkMaxBytes {
		want = fileChunkMaxBytes
	}
	r := th.proc.delegate(th, "read", func(t *sim.Task) any {
		ft := th.proc.files
		of, ok := ft.fds[fd]
		if !ok {
			return res{err: fmt.Errorf("%w: %d", ErrBadFD, fd)}
		}
		data := ft.files[of.name]
		if of.off >= len(data) {
			t.Sleep(fileOpCost)
			return res{}
		}
		n := want
		if of.off+n > len(data) {
			n = len(data) - of.off
		}
		t.Sleep(fileCost(n))
		out := make([]byte, n)
		copy(out, data[of.off:of.off+n])
		of.off += n
		return res{data: out}
	}).(res)
	if r.err != nil {
		return 0, r.err
	}
	copy(buf, r.data)
	if len(r.data) > 0 {
		th.chargeSmall(min(len(r.data), smallAccess))
	}
	return len(r.data), nil
}

// Pwrite writes buf at offset off, growing the file as needed, and returns
// the bytes written.
func (th *Thread) Pwrite(fd int, buf []byte, off int) (int, error) {
	type res struct {
		n   int
		err error
	}
	data := make([]byte, len(buf))
	copy(data, buf)
	r := th.proc.delegate(th, "pwrite", func(t *sim.Task) any {
		ft := th.proc.files
		of, ok := ft.fds[fd]
		if !ok {
			return res{err: fmt.Errorf("%w: %d", ErrBadFD, fd)}
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
		return res{n: len(data)}
	}).(res)
	return r.n, r.err
}

// FileSize returns the current size of a registered file.
func (th *Thread) FileSize(name string) (int, error) {
	type res struct {
		n   int
		err error
	}
	r := th.proc.delegate(th, "stat", func(t *sim.Task) any {
		t.Sleep(fileOpCost)
		data, ok := th.proc.files.files[name]
		if !ok {
			return res{err: fmt.Errorf("%w: %q", ErrNoFile, name)}
		}
		return res{n: len(data)}
	}).(res)
	return r.n, r.err
}
