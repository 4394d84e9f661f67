module subzero/bench

go 1.24

require subzero v0.0.0

replace subzero => ../
