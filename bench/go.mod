module roia/bench

go 1.22

require roia v0.0.0

replace roia => ../
