package linecode

import (
	"fmt"
	"strings"

	"polyecc/internal/mac"
	"polyecc/internal/poly"
)

// DefaultKey is the MAC key the registry's Polymorphic codes and the
// experiments share. Any key works — it only has to be secret in a
// deployment, not in a Monte Carlo study. It lives here (rather than in
// the experiment drivers) so that a code built by name reproduces the
// published tables bit for bit.
var DefaultKey = [16]byte{0x42, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// entry is one registered scheme.
type entry struct {
	doc   string
	build func() Code
}

var (
	registry = map[string]entry{}
	names    []string // registration order, the display order everywhere
)

// Register adds a named scheme constructor. Every command-line tool
// resolves its -code flag against this table, so registering here is all
// it takes to expose a new scheme to the whole stack. Register panics on
// a duplicate name; it is meant to be called from init.
func Register(name, doc string, build func() Code) {
	if build == nil {
		panic("linecode: Register with nil builder")
	}
	if name == "" || strings.ContainsAny(name, ", \t\n") {
		panic(fmt.Sprintf("linecode: invalid code name %q", name))
	}
	if _, dup := registry[name]; dup {
		panic("linecode: duplicate registration of " + name)
	}
	registry[name] = entry{doc: doc, build: build}
	names = append(names, name)
}

// New constructs the named scheme, or lists what is available.
func New(name string) (Code, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return registry[name].build(), nil
}

// CheckName returns New's error for a name that is not registered, and
// nil for one that is, without constructing anything.
func CheckName(name string) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("linecode: unknown code %q (registered: %s)", name, strings.Join(names, ", "))
	}
	return nil
}

// MustNew is New for names that are known to be registered.
func MustNew(name string) Code {
	c, err := New(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns every registered name in registration order.
func Names() []string {
	return append([]string(nil), names...)
}

// Describe returns the one-line description a scheme registered with.
func Describe(name string) (string, bool) {
	e, ok := registry[name]
	return e.doc, ok
}

// registerPoly registers one Polymorphic multiplier configuration.
func registerPoly(name, label, doc string, cfg func() poly.Config, macBits int) {
	Register(name, doc, func() Code {
		return Poly{C: poly.MustNew(cfg(), mac.MustSipHash(DefaultKey, macBits)), Label: label}
	})
}

func init() {
	// The five Polymorphic multiplier configurations of the paper's
	// evaluation. poly-m2005-zr is the flagship Table V instance (M=2005
	// with the zero-remainder second phase of §VIII-A), so it and the
	// 16-bit-symbol instance keep the bare "Polymorphic" display label
	// the published tables use.
	registerPoly("poly-m511", "Polymorphic(M=511)",
		"Polymorphic ECC, M=511 (9 check bits, 56-bit MAC)",
		poly.ConfigM511, 56)
	registerPoly("poly-m1021", "Polymorphic(M=1021)",
		"Polymorphic ECC, M=1021 (10 check bits, 48-bit MAC)",
		poly.ConfigM1021, 48)
	registerPoly("poly-m2005", "Polymorphic(M=2005)",
		"Polymorphic ECC, M=2005 (11 check bits, 40-bit MAC)",
		poly.ConfigM2005, 40)
	registerPoly("poly-m2005-zr", "Polymorphic",
		"Polymorphic ECC, M=2005 with zero-remainder phase (the Table V flagship)",
		func() poly.Config {
			cfg := poly.ConfigM2005()
			cfg.TryZeroRemainder = true
			return cfg
		}, 40)
	registerPoly("poly-m131049", "Polymorphic",
		"Polymorphic ECC, M=131049 over 16-bit symbols (60-bit MAC)",
		poly.ConfigM131049, 60)

	Register("rs-sddc", "commercial-style SDDC Reed-Solomon, 8x RS(10,8)",
		func() Code { return NewRS() })
	Register("unity", "Unity ECC: SDDC plus double-bit correction via unused syndromes",
		func() Code { return NewUnity() })
	Register("bamboo", "Bamboo ECC: pin-aligned 2x RS(40,32), t=4",
		func() Code { return NewBamboo() })
	Register("hamming-secded", "Hamming(72,64) Hsiao SEC-DED per codeword (Table II baseline)",
		func() Code { return NewHamming() })
}
