package sim

import "testing"

// TestXopNamesComplete pins the display-name table to the internal ISA:
// every opcode in [0, numXops) must carry a distinct, non-placeholder
// name. The dispatch histogram and run reports label opcodes through
// xopName, so a new superinstruction cannot land without its name showing
// up here.
func TestXopNamesComplete(t *testing.T) {
	seen := make(map[string]xop, numXops)
	for op := 0; op < numXops; op++ {
		name := xopName(xop(op))
		if name == "" || name == "XOP?" {
			t.Errorf("opcode %d has no entry in xopNames", op)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d share the name %q", prev, op, name)
		}
		seen[name] = xop(op)
	}
}
