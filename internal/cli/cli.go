// Package cli carries the shared command-line plumbing of the mira
// binaries (mirasim, mirabench, miratrace): structured logging setup on
// top of log/slog. Diagnostics — progress, warnings, errors — go to
// stderr through the configured handler; result output (tables, CSV,
// JSON) stays on stdout untouched, so the byte-determinism checks CI
// runs on command output are unaffected by log level or format.
package cli

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
)

// LogFlags is the standard pair of logging flags. Register with
// flag.StringVar/BoolVar and pass to Setup after flag.Parse.
type LogFlags struct {
	// Level is the minimum level: "debug", "info", "warn" or "error".
	Level string
	// JSON switches the handler from human-readable text to one JSON
	// object per line.
	JSON bool
}

// RegisterFlags registers the standard -loglevel and -logjson flags on
// fs, storing into f.
func RegisterFlags(fs *flag.FlagSet, f *LogFlags) {
	fs.StringVar(&f.Level, "loglevel", "info", "diagnostic log level: debug, info, warn or error")
	fs.BoolVar(&f.JSON, "logjson", false, "emit diagnostics as JSON lines instead of text")
}

// Setup installs the process-wide slog default writing to stderr.
func Setup(f LogFlags) error {
	var lv slog.Level
	if f.Level == "" {
		f.Level = "info"
	}
	if err := lv.UnmarshalText([]byte(f.Level)); err != nil {
		return fmt.Errorf("cli: bad log level %q: %w", f.Level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if f.JSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// Fatal logs err at error level with the command's name and exits
// nonzero — the slog replacement for fmt.Fprintf(os.Stderr)+os.Exit.
func Fatal(cmd string, err error) {
	slog.Error("fatal", "cmd", cmd, "err", err)
	os.Exit(1)
}

// Usage reports a mistake on the command line and exits 2, the status
// the flag package exits with for a bad flag.
func Usage(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(2)
}
