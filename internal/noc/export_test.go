package noc

// Hooks for the external tests (package noc_test).

// SetGenerateAhead makes Sim.Run generate ahead for every open-loop
// generator (v > 0) or for none (v < 0); 0 leaves it to the thread budget.
func SetGenerateAhead(v int) { aheadForce = v }

// LiveThreads reads the process's count of simulation threads.
func LiveThreads() int64 { return liveThreads.Load() }

var CreatedBy, WaitFor = createdBy, waitFor

const AheadCycles, AheadSpecs, AheadChunks = aheadCycles, aheadSpecs, aheadChunks
