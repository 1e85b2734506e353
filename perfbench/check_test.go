package main

import (
	"testing"

	"videodb/internal/server"
)

func TestJSONEqual(t *testing.T) {
	want := []server.MatchJSON{{Clip: `a "b" \ c`, Shot: 1, VarBA: 1.5, Dv: 0.25, Scene: "SN_2^1"}}
	for _, c := range []struct {
		got string
		eq  bool
	}{
		{`[{"clip":"a \"b\" \\ c","shot":1,"start":0,"end":0,"varBA":1.5,"varOA":0,"dv":0.25,"scene":"SN_2^1"}]`, true},
		{"[\n  {\n    \"clip\": \"a \\\"b\\\" \\\\ c\",\n    \"shot\": 1,\n    \"start\": 0,\n    \"end\": 0,\n    \"varBA\": 1.5,\n    \"varOA\": 0,\n    \"dv\": 0.25,\n    \"scene\": \"SN_2^1\"\n  }\n]\n", true},
		// Another float spelling or field order decodes to the same value.
		{`[{"shot":1,"clip":"a \"b\" \\ c","start":0,"end":0,"varBA":15e-1,"varOA":0.0,"dv":0.250,"scene":"SN_2^1"}]`, true},
		{`[{"clip":"a \"b\" \\ c","shot":2,"start":0,"end":0,"varBA":1.5,"varOA":0,"dv":0.25,"scene":"SN_2^1"}]`, false},
		// Whitespace inside a string is significant.
		{`[{"clip":"a \"b\"  \\ c","shot":1,"start":0,"end":0,"varBA":1.5,"varOA":0,"dv":0.25,"scene":"SN_2^1"}]`, false},
		{`[]`, false},
	} {
		eq, err := jsonEqual([]byte(c.got), want)
		if eq != c.eq {
			t.Errorf("jsonEqual(%s) = %v (%v), want %v", c.got, eq, err, c.eq)
		}
	}
	if _, err := jsonEqual([]byte(`[{"clip":"x","extra":1}]`), want); err == nil {
		t.Error("an unknown field was accepted")
	}
}
