package tech

import (
	"math"
	"testing"
)

func TestBuiltinParamsValidate(t *testing.T) {
	for _, p := range []*Params{NMOS4(), CMOS3()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"empty name", func(p *Params) { p.Name = "" }},
		{"zero vdd", func(p *Params) { p.Vdd = 0 }},
		{"vtn negative", func(p *Params) { p.VtN = -1 }},
		{"vtn above vdd", func(p *Params) { p.VtN = 6 }},
		{"vtdep positive", func(p *Params) { p.VtDep = 1 }},
		{"vtp positive", func(p *Params) { p.VtP = 1 }},
		{"zero gate cap", func(p *Params) { p.CGate = 0 }},
		{"negative wire cap", func(p *Params) { p.CWire = -1 }},
		{"zero lambda", func(p *Params) { p.Lambda = 0 }},
		{"zero kpn", func(p *Params) { p.KPn = 0 }},
		{"no pulldown", func(p *Params) { p.RDown[NEnh] = 0 }},
		{"no depletion pullup", func(p *Params) { p.RUp[NDep] = 0 }},
	}
	for _, m := range mutations {
		p := NMOS4()
		m.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
	// CMOS-specific: p-channel present but KPp zero.
	p := CMOS3()
	p.KPp = 0
	if err := p.Validate(); err == nil {
		t.Error("p-channel without KPp should fail")
	}
	if err := (*Params)(nil).Validate(); err == nil {
		t.Error("nil params should fail")
	}
}

func TestRGeometryScaling(t *testing.T) {
	p := NMOS4()
	base := p.R(NEnh, Fall, p.MinW, p.MinL)
	wide := p.R(NEnh, Fall, 2*p.MinW, p.MinL)
	long := p.R(NEnh, Fall, p.MinW, 2*p.MinL)
	if math.Abs(wide-base/2) > 1e-9 {
		t.Errorf("doubling width should halve R: %g vs %g", wide, base/2)
	}
	if math.Abs(long-2*base) > 1e-9 {
		t.Errorf("doubling length should double R: %g vs %g", long, 2*base)
	}
	if base != p.RSquare(NEnh, Fall) {
		t.Error("minimum device should be one square")
	}
}

func TestCapsPositive(t *testing.T) {
	p := CMOS3()
	if p.GateCap(p.MinW, p.MinL) <= 0 {
		t.Error("gate cap must be positive")
	}
	if p.DiffCap(p.MinW) <= 0 {
		t.Error("diffusion cap must be positive")
	}
	// Diffusion cap grows with width.
	if p.DiffCap(2*p.MinW) <= p.DiffCap(p.MinW) {
		t.Error("diffusion cap should grow with width")
	}
}

func TestVtAndKP(t *testing.T) {
	p := CMOS3()
	if p.Vt(NEnh) != p.VtN || p.Vt(PEnh) != p.VtP || p.Vt(NDep) != p.VtDep {
		t.Error("Vt mapping wrong")
	}
	if p.KP(NEnh) != p.KPn || p.KP(NDep) != p.KPn || p.KP(PEnh) != p.KPp {
		t.Error("KP mapping wrong")
	}
}

func TestHasPChannel(t *testing.T) {
	if NMOS4().HasPChannel() {
		t.Error("nMOS should not have p-channel")
	}
	if !CMOS3().HasPChannel() {
		t.Error("CMOS should have p-channel")
	}
}

func TestDeviceAndTransitionStrings(t *testing.T) {
	if NEnh.String() != "e" || NDep.String() != "d" || PEnh.String() != "p" {
		t.Error("device mnemonics wrong")
	}
	if Rise.String() != "rise" || Fall.String() != "fall" {
		t.Error("transition names wrong")
	}
	if Rise.Opposite() != Fall || Fall.Opposite() != Rise {
		t.Error("Opposite wrong")
	}
	if len(Devices()) != 3 {
		t.Error("Devices should list all three types")
	}
	if Device(99).String() == "" {
		t.Error("unknown device should still render")
	}
}

// TestByName pins the names every command and crystald accept, and the
// error text they report for any other.
func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"nmos-4u": "nmos-4u", "nmos": "nmos-4u",
		"cmos-3u": "cmos-3u", "cmos": "cmos-3u",
	} {
		if p, err := ByName(name); err != nil || p.Name != want {
			t.Errorf("ByName(%q) = %v, %v; want %s", name, p, err, want)
		}
	}
	if _, err := ByName("ge-5"); err == nil || err.Error() != `unknown technology "ge-5"` {
		t.Errorf("ByName(ge-5) error = %v", err)
	}
}
