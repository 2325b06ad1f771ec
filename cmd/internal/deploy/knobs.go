package deploy

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
)

// KnobTable renders fs as a Markdown table, one row per flag in name
// order: its name, its default and its usage string. The usage string is
// the only description a flag has; docs/ARCHITECTURE.md prints this table.
func KnobTable(fs *flag.FlagSet) string {
	var b strings.Builder
	b.WriteString("| Flag | Default | Meaning |\n|---|---|---|\n")
	fs.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if def == "" {
			def = "—"
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", f.Name, def, strings.ReplaceAll(f.Usage, "|", `\|`))
	})
	return b.String()
}

// CheckKnobTable compares KnobTable(fs) with the block of the Markdown file
// at path that lies between the lines "<!-- knobs NAME -->" and
// "<!-- /knobs NAME -->". With update set it rewrites the block instead.
func CheckKnobTable(path, name string, fs *flag.FlagSet, update bool) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	begin, end := []byte("<!-- knobs "+name+" -->\n"), []byte("<!-- /knobs "+name+" -->")
	i, j := bytes.Index(doc, begin), bytes.Index(doc, end)
	if i < 0 || j < i {
		return fmt.Errorf("%s has no %q ... %q block", path, begin, end)
	}
	i += len(begin)
	want := KnobTable(fs)
	if string(doc[i:j]) == want {
		return nil
	}
	if update {
		return os.WriteFile(path, append(append(doc[:i:i], want...), doc[j:]...), 0o644)
	}
	return fmt.Errorf("%s's knob table in %s differs from its flags; rerun with -update to rewrite it (git diff shows the change). Want:\n%s", name, path, want)
}
