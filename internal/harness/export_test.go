package harness

import (
	"flag"
	"io"
)

// ParseSpec parses and validates tangosim's run flags; run only on nil error.
func ParseSpec(args []string) (*Spec, error) {
	fs := flag.NewFlagSet("tangosim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := SpecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return s, s.Validate()
}
