module perseus/bench

go 1.24

require perseus v0.0.0

replace perseus => ../
