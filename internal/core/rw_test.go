package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dex/internal/dsm"
	"dex/internal/mem"
	"dex/internal/obs"
)

// rwProgram has node 1 take every page of a three-page region, then the main
// thread write n bytes at offset off of it from node 0 and read them back from
// node 2, so both accesses fault pages owned by another node. With funcs the
// accesses are WriteFunc and ReadFunc, else Write and Read. It returns what
// was read, the report, the trace bytes and the (off, len) of every slice the
// func forms handed out.
func rwProgram(t *testing.T, proto dsm.Protocol, off, n int, funcs bool) (got []byte, rep Report, trace []byte, steps [][2]int) {
	t.Helper()
	params := DefaultParams(3)
	params.DSM.Protocol = proto
	params.Obs = obs.NewRecorder()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	got = make([]byte, n)
	_, rep = runParams(t, params, func(th *Thread) error {
		base, err := th.Mmap(3*mem.PageSize, mem.ProtRead|mem.ProtWrite, "rw")
		if err != nil {
			return err
		}
		owner, err := th.Spawn(func(w *Thread) error {
			if err := w.Migrate(1); err != nil {
				return err
			}
			for p := range 3 {
				if err := w.WriteUint64(base+mem.Addr(p*mem.PageSize), uint64(p+1)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := th.Join(owner); err != nil {
			return err
		}
		addr := base + mem.Addr(off)
		if funcs {
			err = th.WriteFunc(addr, n, func(dst []byte, off int) {
				steps = append(steps, [2]int{off, len(dst)})
				copy(dst, data[off:])
			})
		} else {
			err = th.Write(addr, data)
		}
		if err != nil {
			return err
		}
		if err := th.Migrate(2); err != nil {
			return err
		}
		if funcs {
			err = th.ReadFunc(addr, n, func(src []byte, off int) {
				steps = append(steps, [2]int{off, len(src)})
				copy(got[off:], src)
			})
		} else {
			err = th.Read(addr, got)
		}
		if err != nil {
			return err
		}
		return th.MigrateBack()
	})
	var buf bytes.Buffer
	if err := params.Obs.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %d bytes that differ from the %d written", len(got), len(data))
	}
	return got, rep, buf.Bytes(), steps
}

// ReadFunc and WriteFunc are Read and Write without the buffer: the same
// bytes, checks, faults and charges, so the same report, scheduler counts and
// trace bytes — at n = 0, at and above the small-access size, at an address ≡
// 3 (mod 8) whose range crosses page boundaries, on pages another node owns.
// The func forms hand out each page's slice once, in address order.
func TestFuncFormsAreReadWrite(t *testing.T) {
	cases := []struct {
		name   string
		off, n int
	}{
		{"empty", 64, 0},
		{"small", 64, smallAccess},
		{"small across a page", mem.PageSize - 5, 200},
		{"large", 64, smallAccess + 1},
		{"large across pages", 3, 2*mem.PageSize + 100},
	}
	for _, proto := range []dsm.Protocol{dsm.WriteInvalidate, dsm.DistributedManager} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/%s", proto, c.name), func(t *testing.T) {
				wantGot, wantRep, wantTrace, _ := rwProgram(t, proto, c.off, c.n, false)
				got, rep, trace, steps := rwProgram(t, proto, c.off, c.n, true)
				if !bytes.Equal(got, wantGot) {
					t.Error("the func forms read other bytes")
				}
				if !reflect.DeepEqual(rep, wantRep) {
					t.Errorf("reports differ:\nfunc forms %+v\nRead/Write %+v", rep, wantRep)
				}
				if !reflect.DeepEqual(rep.Sched, wantRep.Sched) {
					t.Errorf("scheduler counts differ: %+v, want %+v", rep.Sched, wantRep.Sched)
				}
				if !bytes.Equal(trace, wantTrace) {
					t.Errorf("trace bytes differ (%d against %d)", len(trace), len(wantTrace))
				}
				var want [][2]int
				for range 2 { // the write's slices, then the read's
					for o := 0; o < c.n; {
						l := min(mem.PageSize-(c.off+o)%mem.PageSize, c.n-o)
						want = append(want, [2]int{o, l})
						o += l
					}
				}
				if !reflect.DeepEqual(steps, want) {
					t.Errorf("slices handed out %v, want %v", steps, want)
				}
			})
		}
	}
}
