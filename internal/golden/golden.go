// Package golden checks deterministic test output against checked-in files.
// A test passes its output to Check with the file's path; a mismatch names the
// file and the first differing line, and `go test <pkg> -update` rewrites
// every file whose output changed (and only those). Its importer is the
// experiments registry's tests, TestGolden and TestCampaignGolden, which pin
// every entry's text and every campaign's report; test binaries are its only
// importers, so its -update flag is registered only there.
package golden

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files whose output changed")

// Check compares got with the golden file at path. On a mismatch it fails t
// with the first differing line, or, under -update, rewrites the file.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	line, g, w := firstDiff(got, want)
	t.Fatalf("%s:%d: output differs; rerun with -update to accept\n got: %s\nwant: %s", path, line, g, w)
}

// firstDiff returns the 1-based number of the first line where got and want
// differ, and that line from each ("<end of output>" past the last line).
func firstDiff(got, want []byte) (line int, g, w string) {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	at := func(lines [][]byte, i int) string {
		if i < len(lines) {
			return string(lines[i])
		}
		return "<end of output>"
	}
	i := 0
	for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
		i++
	}
	return i + 1, at(gl, i), at(wl, i)
}
