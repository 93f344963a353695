package gcl

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzGCLLoad feeds arbitrary source to the front end. Parse and Compile
// must return an error or a module, never panic; any source that parses
// must print to a fixed point of Print→Parse→Print.
func FuzzGCLLoad(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.gcl"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata/*.gcl seeds (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, c := range oversizedSources {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(file)
		_, _ = Compile(file) // a refusal is fine; only a panic fails the target
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed source does not parse: %v\n%s", err, printed)
		}
		if reprinted := Print(again); reprinted != printed {
			t.Fatalf("Print→Parse→Print is not a fixed point:\n%s\n---\n%s", printed, reprinted)
		}
	})
}
