//go:build race

package ir

// poisonReleased makes Release poison a module's arena instead of
// recycling it: every instruction it handed out gets opReleased and nil
// operand and target lists, and the arena is never reused. The race
// suites (make race, chaos, router-test) thus run every serving path with
// use-after-release turned into a panic rather than a silent read of the
// next module's memory.
const poisonReleased = true
