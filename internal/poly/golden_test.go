package poly

import (
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"polyecc/internal/dram"
	"polyecc/internal/faults"
	"polyecc/internal/mac"
	"polyecc/internal/wideint"
)

// The golden vectors pin the exact encode/decode behaviour of the line
// codec: encoded words, decoded bytes, and the full Report (status,
// model, iteration counts) for clean, check-bit-corrupted, and in-model
// faulted lines under every configuration. They were captured before the
// scratch-based hot path landed, so any divergence between the legacy
// and scratch paths — or any silent change to candidate enumeration
// order — fails here.
//
// Regenerate (only when the code's behaviour is intentionally changed):
//
//	POLYECC_REGEN_GOLDEN=1 go test -run TestGoldenVectors ./internal/poly

const goldenPath = "testdata/golden_vectors.json"

type goldenReport struct {
	Status         int   `json:"status"`
	Model          int   `json:"model"`
	Iterations     int   `json:"iterations"`
	CorruptedWords int   `json:"corrupted_words"`
	ECCFixed       bool  `json:"ecc_fixed"`
	PerModelTrials []int `json:"per_model_trials"`
}

type goldenVector struct {
	Scenario string       `json:"scenario"`
	Seed     int64        `json:"seed"`
	Data     string       `json:"data"`    // hex of the 64 plaintext bytes
	Words    []string     `json:"words"`   // hex of each encoded codeword (post-fault)
	Decoded  string       `json:"decoded"` // hex of DecodeLine's output
	Report   goldenReport `json:"report"`
}

type goldenConfig struct {
	Name    string         `json:"name"`
	Vectors []goldenVector `json:"vectors"`
}

type goldenFile struct {
	Configs []goldenConfig `json:"configs"`
}

// goldenCodes returns the configurations the vectors cover, mirroring
// the registered poly codecs.
func goldenCodes(t testing.TB) map[string]*Code {
	t.Helper()
	key := [16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6}
	build := func(cfg Config, macBits int) *Code {
		c, err := New(cfg, mac.MustSipHash(key, macBits))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	zr := ConfigM2005()
	zr.TryZeroRemainder = true
	return map[string]*Code{
		"m511":    build(ConfigM511(), 56),
		"m1021":   build(ConfigM1021(), 48),
		"m2005":   build(ConfigM2005(), 40),
		"m2005zr": build(zr, 40),
		"m131049": build(ConfigM131049(), 60),
	}
}

// goldenInjectors returns the in-model injectors a configuration's
// corrector supports, in a fixed scenario order.
func goldenInjectors(c *Code) []faults.Injector {
	g := dram.WordGeometry{SymbolBits: c.Geometry().SymbolBits}
	var out []faults.Injector
	for _, m := range c.models {
		switch m {
		case ModelChipKill:
			out = append(out, faults.ChipKill{Geometry: g})
		case ModelSSC:
			out = append(out, faults.SSC{Geometry: g})
		case ModelDEC:
			out = append(out, faults.DEC{Geometry: g, Words: 2})
		case ModelBFBF:
			out = append(out, faults.BFBF{Geometry: g})
		case ModelChipKillPlus1:
			out = append(out, faults.ChipKillPlus1{Geometry: g})
		}
	}
	return out
}

func wordHex(w wideint.U192) string {
	b := w.Bytes()
	return hex.EncodeToString(b[:])
}

func wordFromHex(t *testing.T, s string) wideint.U192 {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return wideint.FromBytes(b)
}

// goldenScenarios builds the faulted lines for one configuration and
// decodes them with the legacy path, returning the recorded vectors.
func goldenScenarios(c *Code) []goldenVector {
	var out []goldenVector
	record := func(scenario string, seed int64, data [LineBytes]byte, l Line) goldenVector {
		got, rep := c.DecodeLine(l)
		v := goldenVector{
			Scenario: scenario,
			Seed:     seed,
			Data:     hex.EncodeToString(data[:]),
			Decoded:  hex.EncodeToString(got[:]),
			Report: goldenReport{
				Status:         int(rep.Status),
				Model:          int(rep.Model),
				Iterations:     rep.Iterations,
				CorruptedWords: rep.CorruptedWords,
				ECCFixed:       rep.ECCFixed,
				PerModelTrials: make([]int, NumFaultModels),
			},
		}
		for i := range v.Report.PerModelTrials {
			v.Report.PerModelTrials[i] = rep.PerModelTrials[i]
		}
		for _, w := range l.Words {
			v.Words = append(v.Words, wordHex(w))
		}
		return v
	}

	// Clean decode.
	r := rand.New(rand.NewSource(41))
	var data [LineBytes]byte
	r.Read(data[:])
	out = append(out, record("clean", 41, data, c.EncodeLine(&data)))

	// Check-bit corruption: nonzero remainder with a matching MAC takes
	// the Update-ECC path.
	l := c.EncodeLine(&data)
	l.Words[0] = l.Words[0].WithField(0, c.CheckBits(), c.WordCheck(l.Words[0])^1)
	out = append(out, record("check-bits", 41, data, l))

	// In-model faults, three trials per supported injector.
	for _, inj := range goldenInjectors(c) {
		for trial := int64(0); trial < 3; trial++ {
			seed := 100*trial + 7
			fr := rand.New(rand.NewSource(seed))
			var d [LineBytes]byte
			fr.Read(d[:])
			burst := c.ToBurst(c.EncodeLine(&d))
			inj.Inject(fr, &burst)
			out = append(out, record(inj.Name(), seed, d, c.FromBurst(&burst)))
		}
	}
	return out
}

// TestGoldenVectors regenerates the golden file when
// POLYECC_REGEN_GOLDEN=1, and otherwise verifies that the current
// encode/decode paths reproduce the captured vectors exactly.
func TestGoldenVectors(t *testing.T) {
	codes := goldenCodes(t)

	if os.Getenv("POLYECC_REGEN_GOLDEN") == "1" {
		var gf goldenFile
		for _, name := range []string{"m511", "m1021", "m2005", "m2005zr", "m131049"} {
			gf.Configs = append(gf.Configs, goldenConfig{Name: name, Vectors: goldenScenarios(codes[name])})
		}
		buf, err := json.MarshalIndent(gf, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden vectors (run with POLYECC_REGEN_GOLDEN=1 to capture): %v", err)
	}
	var gf goldenFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		t.Fatal(err)
	}

	for _, gc := range gf.Configs {
		code, ok := codes[gc.Name]
		if !ok {
			t.Errorf("golden config %q no longer buildable", gc.Name)
			continue
		}
		t.Run(gc.Name, func(t *testing.T) {
			for _, v := range gc.Vectors {
				checkGoldenVector(t, code, v)
			}
		})
	}
}

// checkGoldenVector re-runs one captured scenario through every decode
// path and, for clean lines, every encode path.
func checkGoldenVector(t *testing.T, code *Code, v goldenVector) {
	t.Helper()
	var data [LineBytes]byte
	mustHexInto(t, v.Data, data[:])
	var wantDecoded [LineBytes]byte
	mustHexInto(t, v.Decoded, wantDecoded[:])
	l := Line{Words: make([]wideint.U192, len(v.Words))}
	for i, ws := range v.Words {
		l.Words[i] = wordFromHex(t, ws)
	}

	// The clean scenario's words are EncodeLine's exact output.
	if v.Scenario == "clean" {
		enc := code.EncodeLine(&data)
		for i, w := range enc.Words {
			if wordHex(w) != v.Words[i] {
				t.Fatalf("%s: EncodeLine word %d = %s, golden %s", v.Scenario, i, wordHex(w), v.Words[i])
			}
		}
		checkGoldenEncodeScratch(t, code, &data, v)
	}

	for _, path := range goldenDecodePaths(code) {
		got, rep := path.decode(l)
		if got != wantDecoded {
			t.Errorf("%s/%s: decoded bytes diverge from golden", v.Scenario, path.name)
		}
		if int(rep.Status) != v.Report.Status || int(rep.Model) != v.Report.Model ||
			rep.Iterations != v.Report.Iterations || rep.CorruptedWords != v.Report.CorruptedWords ||
			rep.ECCFixed != v.Report.ECCFixed {
			t.Errorf("%s/%s: report = %+v, golden %+v", v.Scenario, path.name, rep, v.Report)
		}
		for m, n := range v.Report.PerModelTrials {
			if rep.PerModelTrials[m] != n {
				t.Errorf("%s/%s: PerModelTrials[%d] = %d, golden %d", v.Scenario, path.name, m, rep.PerModelTrials[m], n)
			}
		}
	}
}

// decodePath is one of the equivalent decode implementations under test.
type decodePath struct {
	name   string
	decode func(Line) ([LineBytes]byte, Report)
}

func goldenDecodePaths(code *Code) []decodePath {
	scratch := code.NewScratch()
	return []decodePath{
		{"legacy", code.DecodeLine},
		{"scratch", func(l Line) ([LineBytes]byte, Report) {
			return code.DecodeLineScratch(l, scratch)
		}},
		// Round-trip through the wire format with scratch buffers: the
		// soak/scrub consumers decode lines produced by FromBurstScratch.
		{"burst-scratch", func(l Line) ([LineBytes]byte, Report) {
			b := code.ToBurst(l)
			return code.DecodeLineScratch(code.FromBurstScratch(&b, scratch), scratch)
		}},
	}
}

// checkGoldenEncodeScratch verifies the scratch-based encoder against the
// golden words.
func checkGoldenEncodeScratch(t *testing.T, code *Code, data *[LineBytes]byte, v goldenVector) {
	t.Helper()
	s := code.NewScratch()
	enc := code.EncodeLineScratch(data, s)
	for i, w := range enc.Words {
		if wordHex(w) != v.Words[i] {
			t.Fatalf("%s: EncodeLineScratch word %d = %s, golden %s", v.Scenario, i, wordHex(w), v.Words[i])
		}
	}
}

func mustHexInto(t *testing.T, s string, dst []byte) {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(dst) {
		t.Fatalf("bad golden hex %q: %v", s, err)
	}
	copy(dst, b)
}
