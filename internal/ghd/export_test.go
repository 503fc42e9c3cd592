package ghd

// SearchUncached runs the decomposition search without the memo.
var SearchUncached = search
