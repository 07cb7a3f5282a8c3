module bullion/bench

go 1.22

require bullion v0.0.0

replace bullion => ../
