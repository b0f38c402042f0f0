package storage

import (
	"bytes"
	"testing"

	"phoenix/internal/costmodel"
	"phoenix/internal/simclock"
)

func newDisk() (*simclock.Clock, *Disk) {
	clk := simclock.New()
	return clk, NewDisk(clk, costmodel.Default())
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, d := newDisk()
	data := []byte("snapshot-bytes")
	d.WriteFile("dump.rdb", data)
	got, ok := d.ReadFile("dump.rdb")
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: ok=%v got=%q", ok, got)
	}
	// Returned slice is a copy.
	got[0] = 'X'
	again, _ := d.ReadFile("dump.rdb")
	if again[0] == 'X' {
		t.Fatal("ReadFile aliases stored data")
	}
}

// TestWriteFileKeepsSlice pins that the disk takes the written slice as is: a
// write allocates only its File, never a copy of the data.
func TestWriteFileKeepsSlice(t *testing.T) {
	_, d := newDisk()
	data := make([]byte, 1<<20)
	if allocs := testing.AllocsPerRun(10, func() { d.WriteFile("f", data) }); allocs != 1 {
		t.Fatalf("WriteFile allocated %v times per call, want 1 (its File)", allocs)
	}
}

func TestWriteChargesTime(t *testing.T) {
	clk, d := newDisk()
	model := costmodel.Default()
	d.WriteFile("f", make([]byte, 1<<20))
	if got, want := clk.Now(), model.DiskWrite(1<<20); got != want {
		t.Fatalf("write charged %v, want %v", got, want)
	}
}

func TestReadChargesTime(t *testing.T) {
	clk, d := newDisk()
	model := costmodel.Default()
	d.WriteFile("f", make([]byte, 1<<20))
	before := clk.Now()
	d.ReadFile("f")
	if got, want := clk.Now()-before, model.DiskRead(1<<20); got != want {
		t.Fatalf("read charged %v, want %v", got, want)
	}
}

func TestMissingFile(t *testing.T) {
	_, d := newDisk()
	if _, ok := d.ReadFile("nope"); ok {
		t.Fatal("missing file read ok")
	}
	if d.Exists("nope") || d.Size("nope") != -1 {
		t.Fatal("missing file metadata wrong")
	}
}

func TestAppend(t *testing.T) {
	_, d := newDisk()
	d.Append("wal", []byte("rec1;"))
	d.Append("wal", []byte("rec2;"))
	got, _ := d.ReadFile("wal")
	if string(got) != "rec1;rec2;" {
		t.Fatalf("append content %q", got)
	}
	if d.Size("wal") != 10 {
		t.Fatalf("Size = %d", d.Size("wal"))
	}
}

func TestRename(t *testing.T) {
	_, d := newDisk()
	d.WriteFile("tmp", []byte("x"))
	if err := d.Rename("tmp", "final"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("tmp") || !d.Exists("final") {
		t.Fatal("rename did not move file")
	}
	if err := d.Rename("tmp", "y"); err == nil {
		t.Fatal("rename of missing file succeeded")
	}
}

func TestRemoveAndList(t *testing.T) {
	_, d := newDisk()
	d.WriteFile("b", nil)
	d.WriteFile("a", nil)
	if got := d.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("List = %v", got)
	}
	d.Remove("a")
	if d.Exists("a") {
		t.Fatal("file still exists after Remove")
	}
}

func TestCounters(t *testing.T) {
	_, d := newDisk()
	d.WriteFile("f", make([]byte, 100))
	d.Append("f", make([]byte, 50))
	d.ReadFile("f")
	if d.BytesWritten() != 150 || d.BytesRead() != 150 || d.Ops() != 3 {
		t.Fatalf("counters: w=%d r=%d ops=%d", d.BytesWritten(), d.BytesRead(), d.Ops())
	}
	if d.TotalBytes() != 150 {
		t.Fatalf("TotalBytes = %d", d.TotalBytes())
	}
}
