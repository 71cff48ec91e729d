// Exempt fixture for the [durable-io] rule: the wire layer may unlink its
// own socket path, which is not durable state, so this must not be
// flagged.
#include <unistd.h>

#include <string>

void RemoveSocketPath(const std::string& path) { (void)::unlink(path.c_str()); }
