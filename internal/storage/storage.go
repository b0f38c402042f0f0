// Package storage implements the simulated disk used by builtin persistence
// (RDB-style snapshots, write-ahead logs, checkpoints) and by the CRIU-style
// baseline. Reads and writes advance the simulated clock according to the
// cost model's sequential-throughput and latency constants, which is what
// makes builtin recovery slow in exactly the way §2.1 describes.
package storage

import (
	"fmt"
	"sort"

	"phoenix/internal/costmodel"
	"phoenix/internal/simclock"
)

// Disk is a simulated block device with a flat namespace of files.
type Disk struct {
	clock *simclock.Clock
	model costmodel.Model
	files map[string]*File

	// Totals for diagnostics and overhead accounting.
	bytesRead    int64
	bytesWritten int64
	ops          int64
}

// File is a simulated on-disk file.
type File struct {
	Name string
	Data []byte
}

// NewDisk returns an empty disk attached to the clock and cost model.
func NewDisk(clock *simclock.Clock, model costmodel.Model) *Disk {
	return &Disk{clock: clock, model: model, files: make(map[string]*File)}
}

// WriteFile replaces the file's content, charging sequential-write time.
// The disk takes ownership of data: it stores the slice without copying, so
// the caller must not touch it afterwards.
func (d *Disk) WriteFile(name string, data []byte) {
	d.clock.Advance(d.model.DiskWrite(int64(len(data))))
	d.files[name] = &File{Name: name, Data: data}
	d.bytesWritten += int64(len(data))
	d.ops++
}

// Append appends data to the file (creating it if absent), charging write
// time plus the fixed latency — the journaling cost of §2.2.
func (d *Disk) Append(name string, data []byte) {
	d.clock.Advance(d.model.DiskWrite(int64(len(data))))
	f := d.files[name]
	if f == nil {
		f = &File{Name: name}
		d.files[name] = f
	}
	f.Data = append(f.Data, data...)
	d.bytesWritten += int64(len(data))
	d.ops++
}

// ReadFile returns a copy of the file's content, charging sequential-read
// time. ok is false if the file does not exist (no time is charged beyond
// the fixed latency).
func (d *Disk) ReadFile(name string) (data []byte, ok bool) {
	f := d.files[name]
	if f == nil {
		d.clock.Advance(d.model.DiskLatency)
		d.ops++
		return nil, false
	}
	d.clock.Advance(d.model.DiskRead(int64(len(f.Data))))
	d.bytesRead += int64(len(f.Data))
	d.ops++
	return append([]byte(nil), f.Data...), true
}

// Exists reports whether the file exists without charging I/O time.
func (d *Disk) Exists(name string) bool { return d.files[name] != nil }

// Size returns the file's size in bytes, or -1 if it does not exist.
func (d *Disk) Size(name string) int64 {
	f := d.files[name]
	if f == nil {
		return -1
	}
	return int64(len(f.Data))
}

// Remove deletes the file if present.
func (d *Disk) Remove(name string) {
	d.clock.Advance(d.model.DiskLatency)
	delete(d.files, name)
	d.ops++
}

// Rename atomically renames a file, as persistence code does for snapshot
// swap-in. It returns an error if the source is missing.
func (d *Disk) Rename(from, to string) error {
	f := d.files[from]
	if f == nil {
		return fmt.Errorf("storage: rename %q: no such file", from)
	}
	d.clock.Advance(d.model.DiskLatency)
	delete(d.files, from)
	f.Name = to
	d.files[to] = f
	d.ops++
	return nil
}

// List returns the file names in sorted order.
func (d *Disk) List() []string {
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BytesRead returns the cumulative bytes read since creation.
func (d *Disk) BytesRead() int64 { return d.bytesRead }

// BytesWritten returns the cumulative bytes written since creation.
func (d *Disk) BytesWritten() int64 { return d.bytesWritten }

// Ops returns the cumulative I/O operation count.
func (d *Disk) Ops() int64 { return d.ops }

// TotalBytes returns the total size of all stored files.
func (d *Disk) TotalBytes() int64 {
	var n int64
	for _, f := range d.files {
		n += int64(len(f.Data))
	}
	return n
}
