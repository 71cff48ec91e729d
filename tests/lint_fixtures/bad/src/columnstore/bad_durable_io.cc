// Known-bad fixture for the [durable-io] rule: durable file changes made
// outside io_util.cc must be flagged (lines 13-18); the std::remove
// algorithm and the io_util wrappers must not be (lines 22-24).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

void RetireByHand(const std::string& path, int fd) {
  (void)::fsync(fd);
  std::rename((path + ".tmp").c_str(), path.c_str());
  std::remove(path.c_str());
  (void)::unlink(path.c_str());
  std::filesystem::create_directories(path + ".d");
  std::filesystem::remove(path + ".d");
}

void NotDurable(std::vector<int>& ids, const std::string& path) {
  ids.erase(std::remove(ids.begin(), ids.end(), 0), ids.end());
  colgraph::io::RemoveFile(path);
  (void)colgraph::io::CreateDirectories(path + ".d");
}
