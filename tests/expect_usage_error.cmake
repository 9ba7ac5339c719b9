# Runs BIN with an unknown flag and requires a usage error: exit status
# exactly 2 and a stderr message naming the flag. WILL_FAIL alone would
# also pass an abort (SIGABRT), so the status is checked here.
#
#   cmake -DBIN=path/to/binary -P expect_usage_error.cmake
execute_process(COMMAND ${BIN} --no-such-flag
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE message)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${BIN} --no-such-flag: expected exit status 2, "
                      "got '${status}'\n${message}")
endif()
string(FIND "${message}" "'--no-such-flag'" named)
if(named EQUAL -1)
  message(FATAL_ERROR "${BIN}: the usage error does not name the flag:\n"
                      "${message}")
endif()
