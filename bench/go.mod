module docspanner/bench

go 1.23

require docspanner v0.0.0

replace docspanner => ../
