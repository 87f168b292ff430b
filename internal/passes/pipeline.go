package passes

import "mpidetect/internal/ir"

// OptLevel names a compiler option evaluated in the paper (Table IV).
type OptLevel int

// The three optimisation levels the paper compares.
const (
	O0 OptLevel = iota // leave the code intact (easy to analyse)
	O2                 // representative of a real build
	Os                 // size-oriented, normalises code-size bias
)

// String returns the flag spelling, e.g. "-O2".
func (o OptLevel) String() string {
	switch o {
	case O0:
		return "-O0"
	case O2:
		return "-O2"
	case Os:
		return "-Os"
	}
	return "-O?"
}

// ParseOptLevel maps a flag spelling to an OptLevel.
func ParseOptLevel(s string) (OptLevel, bool) {
	switch s {
	case "-O0", "O0", "o0":
		return O0, true
	case "-O2", "O2", "o2":
		return O2, true
	case "-Os", "Os", "os", "-OS":
		return Os, true
	}
	return O0, false
}

// Optimize runs the pass pipeline for the given level over the module,
// in place. -O0 is the identity (matching clang, which only lowers).
func Optimize(m *ir.Module, level OptLevel) {
	switch level {
	case O0:
		return
	case O2:
		optimize(m, 80)
	case Os:
		// -Os inlines only tiny functions and runs an extra cleanup round,
		// shrinking code and reducing the size spread between programs.
		optimize(m, 12)
	}
}

// optimize runs the pipeline with one pooled scratch for the whole run.
func optimize(m *ir.Module, inlineThreshold int) {
	s := getScratch()
	defer scratchPool.Put(s)
	scalarRound := func() {
		for _, f := range m.Funcs {
			if f.Decl {
				continue
			}
			s.mem2reg(f)
			for i := 0; i < 8; i++ {
				c1 := ConstFold(f)
				c2 := CondBrSameTarget(f)
				c3 := s.simplifyCFG(f)
				c4 := s.dce(f)
				if !c1 && !c2 && !c3 && !c4 {
					break
				}
			}
		}
	}
	scalarRound()
	if Inline(m, inlineThreshold) {
		scalarRound()
	}
}
