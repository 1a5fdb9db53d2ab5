package telemetry

import (
	"flag"
	"log/slog"
	"os"
)

// CLIFlags is the shared observability flag set of the cmd tools:
// structured-logging verbosity, the live metrics/profiling endpoint,
// and (for tools that opt in with RegisterJournal) the flight-recorder
// journal.
type CLIFlags struct {
	Verbose     bool
	MetricsAddr string

	// MetricsAddrFile, when non-empty, receives the resolved listen
	// address once the server is up — the handshake scripts need it when
	// -metrics-addr is ":0".
	MetricsAddrFile string

	// JournalPath/JournalCap are bound by RegisterJournal; Init builds
	// Journal from them so /healthz can report its pressure.
	JournalPath string
	JournalCap  int
	Journal     *Journal

	// Vitals, when set before Init, attaches a live health engine to the
	// observability server: /healthz carries its status and /regions its
	// region heatmap.
	Vitals Vitals

	// Extra endpoints mounted on the observability server when set
	// before Init — e.g. the memory controller's /memctl snapshot.
	Extra []Endpoint
}

// Register binds -v and -metrics-addr on fs.
func (f *CLIFlags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Verbose, "v", false, "verbose (debug-level) logging")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve /debug/vars, /debug/pprof, /healthz and /metrics on this address (e.g. :8080)")
	fs.StringVar(&f.MetricsAddrFile, "metrics-addr-file", "",
		"write the resolved metrics listen address to this file (for scripts using -metrics-addr :0)")
}

// RegisterJournal additionally binds -journal and -journal-cap for
// tools that feed the flight recorder. A tool that registers these must
// call WriteJournal (or export the events itself) before exiting.
func (f *CLIFlags) RegisterJournal(fs *flag.FlagSet) {
	fs.StringVar(&f.JournalPath, "journal", "",
		"record decode/campaign anomalies and write them to this JSONL file at exit")
	fs.IntVar(&f.JournalCap, "journal-cap", 4096,
		"flight-recorder capacity in events (oldest are dropped beyond this)")
}

// Init installs the process-wide slog logger (also returned), builds the
// journal when -journal was given, and, when -metrics-addr was given,
// starts the observability server with that journal attached. Call it
// once, after flag.Parse.
func (f *CLIFlags) Init(tool string) *slog.Logger {
	logger := NewLogger(tool, f.Verbose)
	if f.JournalPath != "" && f.Journal == nil {
		f.Journal = NewJournal(f.JournalCap)
		f.Journal.Publish("journal")
		logger.Info("flight recorder on", "path", f.JournalPath, "capacity", f.JournalCap)
	}
	if f.MetricsAddr != "" {
		addr, err := StartServer(f.MetricsAddr, f.Journal, f.Vitals, f.Extra...)
		if err != nil {
			Fatal(logger, "metrics server failed", "addr", f.MetricsAddr, "err", err)
		}
		logger.Info("observability server listening",
			"addr", addr, "vars", "/debug/vars", "pprof", "/debug/pprof/",
			"healthz", "/healthz", "metrics", "/metrics", "regions", "/regions")
		if f.MetricsAddrFile != "" {
			if err := os.WriteFile(f.MetricsAddrFile, []byte(addr+"\n"), 0o644); err != nil {
				Fatal(logger, "write metrics addr file", "path", f.MetricsAddrFile, "err", err)
			}
		}
	}
	return logger
}

// WriteJournal drains the flight recorder into -journal as JSONL (and,
// when chromePath is non-empty, also renders the same events as a Chrome
// trace for Perfetto). A tool without an active journal is a no-op.
func (f *CLIFlags) WriteJournal(logger *slog.Logger, chromePath string) {
	if f.Journal == nil || f.JournalPath == "" {
		return
	}
	events := f.Journal.Drain()
	out, err := os.Create(f.JournalPath)
	if err != nil {
		Fatal(logger, "create journal file", "path", f.JournalPath, "err", err)
	}
	if err := WriteJSONL(out, events); err != nil {
		out.Close()
		Fatal(logger, "write journal", "path", f.JournalPath, "err", err)
	}
	if err := out.Close(); err != nil {
		Fatal(logger, "close journal", "path", f.JournalPath, "err", err)
	}
	logger.Info("wrote journal", "path", f.JournalPath,
		"events", len(events), "dropped", f.Journal.Dropped())
	if chromePath == "" {
		return
	}
	tf, err := os.Create(chromePath)
	if err != nil {
		Fatal(logger, "create chrome trace", "path", chromePath, "err", err)
	}
	if err := WriteChromeTrace(tf, events); err != nil {
		tf.Close()
		Fatal(logger, "write chrome trace", "path", chromePath, "err", err)
	}
	if err := tf.Close(); err != nil {
		Fatal(logger, "close chrome trace", "path", chromePath, "err", err)
	}
	logger.Info("wrote chrome trace", "path", chromePath, "events", len(events))
}

// NewLogger builds the shared text-handler slog logger, tags every
// record with the tool name, and installs it as the slog default so
// library packages (internal/exp progress logging) inherit it.
func NewLogger(tool string, verbose bool) *slog.Logger {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	logger := slog.New(h).With("tool", tool)
	slog.SetDefault(logger)
	return logger
}

// Fatal logs at error level and exits — the slog replacement for the
// cmd tools' former log.Fatal calls.
func Fatal(l *slog.Logger, msg string, args ...any) {
	l.Error(msg, args...)
	os.Exit(1)
}
