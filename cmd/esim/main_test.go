package main

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/tech"
)

func TestRunScript(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.RippleAdder(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	script := `
# 2 + 1 + carry 1 = 4 → s=00, cout=1
h a1 b0 cin
l a0 b1
s
check s0=0 s1=0 cout=1
l cin
s
check s0=1 s1=1 cout=0
`
	var out strings.Builder
	if err := run(nw, strings.NewReader(script), &out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "settled") {
		t.Errorf("missing settle output:\n%s", out.String())
	}
}

func TestRunScriptFailures(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.InverterChain(p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// An absent node name fails on its line, whatever the command.
	const absent = `line 1: switchsim: no node named "nosuch"`
	for script, want := range map[string]string{
		"h nope\n":               "",
		"check out\n":            "",
		"h in\ns\ncheck out=1\n": "", // inverter: out should be 0
		"check out=q\n":          "",
		"frobnicate\n":           "",
		"w nosuch\n":             absent,
		"check nosuch=X\n":       absent,
	} {
		var out strings.Builder
		err := run(nw, strings.NewReader(script), &out)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("script %q: error %v, want one reading %q", script, err, want)
		}
	}
}

func TestRunWatchAndDump(t *testing.T) {
	p := tech.NMOS4()
	nw, err := gen.InverterChain(p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	script := "w s1\nh in\ns\nd\n"
	var out strings.Builder
	if err := run(nw, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "s1=0") {
		t.Errorf("watch output missing s1:\n%s", got)
	}
	if !strings.Contains(got, "Vdd=1") {
		t.Errorf("dump missing rails:\n%s", got)
	}
}
