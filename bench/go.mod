module ipsa/bench

go 1.22

require ipsa v0.0.0

replace ipsa => ../
