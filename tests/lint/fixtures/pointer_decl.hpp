// bfsim_lint fixture header: a file-wide Time `end` that every file
// including it sees.
#pragma once

using Time = long long;

struct Window {
  Time end = 0;
};
