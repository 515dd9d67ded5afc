package main

// pins holds, per workload, the digest of every simulated statistic at the
// pinned seeds. A change that only speeds the simulator up must leave
// them untouched; a change to the model must re-pin them and say why.
var pins = map[string]map[uint64]string{
	"kv-openloop":         {1: "76e99084dfa691f8", 2: "22fcbc3260881991"},
	"statecache-gossip":   {1: "00c433dacbec4ac2", 2: "5b7654d2a2b295df"},
	"election-blackboard": {1: "fd42d7756bfdb917", 2: "24e51146e13edaa8"},
	"faas-burst":          {1: "97800b4b3a5666bd", 2: "14ec7e4491d1c15a"},
}
