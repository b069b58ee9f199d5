module tasm/bench

go 1.24

require tasm v0.0.0

replace tasm => ../
