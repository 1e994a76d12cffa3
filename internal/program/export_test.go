package program

// HandBuiltProgram exposes the hand-built unit-test kernel to the external
// emit golden test.
var HandBuiltProgram = testProgram
