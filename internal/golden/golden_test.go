package golden

import "testing"

func TestFirstDiff(t *testing.T) {
	for _, tc := range []struct {
		got, want string
		line      int
		g, w      string
	}{
		{"a\nb\nc\n", "a\nB\nc\n", 2, "b", "B"},
		{"a\nb\n", "a\nb\nc\n", 3, "", "c"},
		{"a\nb\nc", "a\nb", 3, "c", "<end of output>"},
		{"x", "", 1, "x", ""},
		{"a\n", "a", 2, "", "<end of output>"},
	} {
		line, g, w := firstDiff([]byte(tc.got), []byte(tc.want))
		if line != tc.line || g != tc.g || w != tc.w {
			t.Errorf("firstDiff(%q, %q) = %d %q %q, want %d %q %q", tc.got, tc.want, line, g, w, tc.line, tc.g, tc.w)
		}
	}
}
