module borealis/bench

go 1.22

require borealis v0.0.0

replace borealis => ../
