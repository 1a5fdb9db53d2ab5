package polyecc_test

import (
	"math/rand"
	"testing"

	"polyecc"
)

var key = [16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6}

func TestFacadeRoundTrip(t *testing.T) {
	code, err := polyecc.New(polyecc.ConfigM2005(), polyecc.NewSipHashMAC(key, 40))
	if err != nil {
		t.Fatal(err)
	}
	var data [polyecc.LineBytes]byte
	rand.New(rand.NewSource(1)).Read(data[:])
	line := code.EncodeLine(&data)
	got, rep := code.DecodeLine(line)
	if rep.Status != polyecc.StatusClean || got != data {
		t.Fatalf("clean decode: %+v", rep)
	}
}

func TestFacadeCorrection(t *testing.T) {
	code := polyecc.MustNew(polyecc.ConfigM2005(), polyecc.NewQarmaMAC(key, 40))
	var data [polyecc.LineBytes]byte
	r := rand.New(rand.NewSource(2))
	r.Read(data[:])
	line := code.EncodeLine(&data)
	line.Words[3] = line.Words[3].FlipBit(42)
	got, rep := code.DecodeLine(line)
	if rep.Status != polyecc.StatusCorrected || got != data {
		t.Fatalf("correction failed: %+v", rep)
	}
}

func TestFacadeSimInjectors(t *testing.T) {
	code := polyecc.MustNew(polyecc.ConfigM2005(), polyecc.NewSipHashMAC(key, 40))
	r := rand.New(rand.NewSource(3))
	injectors := []polyecc.Injector{
		polyecc.SimChipKill(code),
		polyecc.SimSSC(code),
		polyecc.SimDEC(code, 2),
		polyecc.SimBFBF(code),
		polyecc.SimChipKillPlus1(code),
		polyecc.SimRandomBits(1),
	}
	for _, inj := range injectors {
		var data [polyecc.LineBytes]byte
		r.Read(data[:])
		burst := code.ToBurst(code.EncodeLine(&data))
		inj.Inject(r, &burst)
		got, rep := code.DecodeLine(code.FromBurst(&burst))
		if rep.Status == polyecc.StatusUncorrectable {
			t.Fatalf("%s: DUE on an in-model fault", inj.Name())
		}
		if got != data {
			t.Fatalf("%s: wrong data", inj.Name())
		}
	}
}

func TestFacadeConfigs(t *testing.T) {
	for _, c := range []struct {
		cfg  polyecc.Config
		bits int
	}{
		{polyecc.ConfigM511(), 56},
		{polyecc.ConfigM1021(), 48},
		{polyecc.ConfigM2005(), 40},
		{polyecc.ConfigM131049(), 60},
	} {
		code, err := polyecc.New(c.cfg, polyecc.NewSipHashMAC(key, c.bits))
		if err != nil {
			t.Fatalf("M=%d: %v", c.cfg.M, err)
		}
		if code.LineMACBits() != c.bits {
			t.Errorf("M=%d: MAC bits %d, want %d", c.cfg.M, code.LineMACBits(), c.bits)
		}
	}
}

// The re-exported latency collector is the facade's decode timer: a
// probed Code records each decode under its outcome class and stamps
// Report.Elapsed.
func TestFacadeLatencyCollector(t *testing.T) {
	coll := polyecc.NewLatencyCollector()
	cfg := polyecc.ConfigM2005()
	cfg.Latency = coll.Probe()
	code := polyecc.MustNew(cfg, polyecc.NewSipHashMAC(key, 40))
	var data [polyecc.LineBytes]byte
	rand.New(rand.NewSource(3)).Read(data[:])
	line := code.EncodeLine(&data)
	line.Words[1] = line.Words[1].FlipBit(30)
	got, rep := code.DecodeLine(line)
	if rep.Status != polyecc.StatusCorrected || got != data || rep.Elapsed <= 0 {
		t.Fatalf("probed correction: %+v", rep)
	}
	ops := coll.Payload().Ops
	if ops["encode"].Count != 1 || ops["corrected"].Count != 1 || ops["clean"].Count != 0 {
		t.Fatalf("collector counts: encode=%d corrected=%d clean=%d",
			ops["encode"].Count, ops["corrected"].Count, ops["clean"].Count)
	}
}
